"""Brute-force sweeps: the ground truth everything else is checked against."""

from __future__ import annotations

import random
import time

import pytest

from invopoly.errors import FieldTooLarge, NotAPermutation
from invopoly.gf import make_field
from invopoly.oracle import compositional_inverse, sweep
from invopoly.polyring import SparsePoly, compose_reduce, parse_poly


def test_cube_is_not_a_permutation_of_f7(f7):
    report = sweep(parse_poly(f7, "x^3"))
    assert not report.is_permutation
    assert report.is_involution is None
    a, b = report.witness
    assert a != b and a**3 == b**3
    assert (a.enc, b.enc) == (1, 2)


def test_cube_permutes_f11_with_inverse_seventh_power(f11):
    cube = parse_poly(f11, "x^3")
    report = sweep(cube)
    assert report.is_permutation and not report.is_involution
    inv = compositional_inverse(cube)
    assert str(inv) == "x^7"
    assert compose_reduce(cube, inv).value_table() == list(range(11))


def test_identity_and_worked_example_fixed_points(f7):
    assert sweep(parse_poly(f7, "x")).fixed_point_count == 7
    report = sweep(parse_poly(f7, "2*x^5 + 3*x^3 + 3*x"))
    assert report.is_permutation and report.is_involution
    assert report.fixed_point_count == 3


def test_involution_implies_permutation_on_random_polys(f9):
    rng = random.Random(31)
    for _ in range(200):
        f = SparsePoly.from_pairs(
            f9, [(rng.randrange(0, 9), f9.element(rng.randrange(9)))
                 for _ in range(rng.randrange(1, 4))])
        report = sweep(f)
        if report.is_involution:
            assert report.is_permutation
        if not report.is_permutation:
            assert report.witness is not None
            a, b = report.witness
            assert f.evaluate(a) == f.evaluate(b)


def test_affine_involutions_of_f5(f5):
    # x -> c - x swaps around c/2; all five are involutions
    for c in range(5):
        f = parse_poly(f5, f"{(5 - 1)}*x + {c}")
        report = sweep(f)
        assert report.is_involution
        assert report.fixed_point_count == 1


def test_value_tables_stop_at_the_default_cap():
    # 2^21 is past DEFAULT_CAP: the sweep is refused before any value is computed
    f = parse_poly(make_field(2, 21), "x^2")
    start = time.perf_counter()
    with pytest.raises(FieldTooLarge, match="value table"):
        sweep(f)
    assert time.perf_counter() - start < 0.5


def test_compositional_inverse_rejects_non_permutations(f7):
    with pytest.raises(NotAPermutation) as exc:
        compositional_inverse(parse_poly(f7, "x^3"))
    assert exc.value.witness is not None


def test_full_field_interpolation_refused_before_value_tables():
    # over 2^18 the refused value tables alone would take most of a second
    field = make_field(2, 18)
    f = parse_poly(field, "x^3")
    for call in (lambda: compose_reduce(f, f), lambda: compositional_inverse(f)):
        start = time.perf_counter()
        with pytest.raises(FieldTooLarge):
            call()
        assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("p, n", [(7, 6), (2, 18)])
def test_frobenius_involution_above_table_limit(p, n):
    # x^(p^(n/2)) is the Frobenius involution of F_(p^n); it fixes exactly
    # the subfield of order p^(n/2)
    field = make_field(p, n)
    assert field._log is None
    report = sweep(parse_poly(field, f"x^{p ** (n // 2)}"))
    assert report.is_permutation and report.is_involution
    assert report.fixed_point_count == p ** (n // 2)


def test_value_table_above_table_limit_matches_evaluate():
    field = make_field(5, 7)
    assert field._log is None
    f = parse_poly(field, "a^3*x^7 + 2*x^2")
    table = f.value_table()
    rng = random.Random(57)
    for enc in [0, 1] + [rng.randrange(field.q) for _ in range(300)]:
        assert table[enc] == f.evaluate(field.element(enc)).enc
