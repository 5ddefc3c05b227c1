"""Brute-force sweeps: the ground truth everything else is checked against."""

from __future__ import annotations

import random
import time
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from invopoly import oracle
from invopoly.errors import FieldTooLarge, NotAPermutation
from invopoly.gf import make_field
from invopoly.oracle import compositional_inverse, sweep
from invopoly.polyring import SparsePoly, compose_reduce, interpolate_table, parse_poly
from conftest import table_free_fields


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
    # 2^21 is past DEFAULT_CAP: every whole-field pass is refused before
    # the first power of alpha is walked, and the field keeps no tables
    field = make_field(2, 21)
    f = parse_poly(field, "x^2")
    for call in (lambda: sweep(f), f.value_table, f.log_values, field.alpha_powers):
        start = time.perf_counter()
        with pytest.raises(FieldTooLarge, match="value table"):
            call()
        assert time.perf_counter() - start < 0.5
    assert field._exp is None and field.log_table is None


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


@pytest.mark.parametrize("p, n, exponents", [
    (65537, 1, [3, 40961, 65536, 131072, 65539, 0]),
    (65539, 1, [5, 65538, 65543, 0]),
    (2, 17, [3, 131071, 131074, 0])])
def test_value_table_of_monomials_above_table_limit_matches_evaluate(p, n, exponents):
    # c*x^e with e = 0, e a multiple of q - 1 (1 off zero, 0 at zero) and
    # e >= q among the exponents: each term read off the one walk of
    # alpha's powers that the field keeps from its first value table
    field = make_field(p, n)
    assert field._log is None
    rng = random.Random(p)
    points = [0, 1] + [rng.randrange(field.q) for _ in range(200)]
    for e in exponents:
        f = SparsePoly.from_pairs(field, [(e, field.element(rng.randrange(1, field.q)))])
        table = f.value_table()
        assert [table[x] for x in points] == [f.evaluate(field.element(x)).enc for x in points]


@pytest.mark.parametrize("p, n, text", [
    pytest.param(5, 7, "a^3*x^7 + 2*x^2", id="5^7-two-terms"),
    pytest.param(3, 11, "a^3*x^7 + 2*x^2", id="3^11-two-terms"),
    pytest.param(3, 11, "a^3*x^7 + 2*x^2 + a^100*x", id="3^11-three-terms"),
    pytest.param(7, 6, "a^3*x^7 + 2*x^2", id="7^6-two-terms"),
    pytest.param(7, 6, "a^3*x^7 + 2*x^2 + a^100*x", id="7^6-three-terms")])
def test_value_table_above_table_limit_matches_evaluate(p, n, text):
    # spread lanes of the kept walk, summed and reduced as on log tables
    field = make_field(p, n)
    assert field._log is None
    f = parse_poly(field, text)
    table = f.value_table()
    rng = random.Random(57)
    for enc in [0, 1] + [rng.randrange(field.q) for _ in range(300)]:
        assert table[enc] == f.evaluate(field.element(enc)).enc


def _reference_report(f):
    """sweep's report fields from evaluate at every point and the two loops
    of a full-table check: the first repeat in encoding order, paired with
    the first x of its value; then the first x with f(f(x)) != x."""
    table = [f.evaluate(x).enc for x in f.field.elements()]
    first = {}
    for x, y in enumerate(table):
        if y in first:
            return False, None, None, (first[y], x)
        first[y] = x
    for x, y in enumerate(table):
        if table[y] != x:
            return True, False, None, (x, table[y])
    return True, True, sum(x == y for x, y in enumerate(table)), None


def _fields(report):
    witness = report.witness and tuple(w.enc for w in report.witness)
    return report.is_permutation, report.is_involution, report.fixed_point_count, witness


@st.composite
def _sweep_polys(draw, field, max_terms):
    """Sparse polynomials of 1 to max_terms terms with constant terms and
    exponents >= q among them; c*x^e + b, a permutation exactly when
    gcd(e, q - 1) = 1 and constant on the cosets of mu_g otherwise; the
    same with 0 moved onto the value of some y != 0, so that (0, y) is its
    one collision; and the involutions a*x^r with r^2 = 1 and
    a^(r+1) = 1, and -x + b."""
    q, qm1 = field.q, field.q - 1
    kind = draw(st.sampled_from(["sparse", "power", "moved zero", "involution"]))
    lift = draw(st.integers(0, 2)) * qm1   # the same map from exponents >= q
    b = field.element(draw(st.integers(0, q - 1)))
    c = field.element(draw(st.integers(1, q - 1)))
    if kind == "power":
        e = draw(st.integers(1, qm1))
        return SparsePoly.from_pairs(field, [(e + lift, c), (0, b)])
    if kind == "moved zero":   # c*x^e + a*(1 - x^(q-1)) with a = c*y^e
        e = draw(st.sampled_from([e for e in range(1, q) if gcd(e, qm1) == 1]))
        a = c * field.element(draw(st.integers(1, qm1))) ** e
        return SparsePoly.from_pairs(field, [(e + lift, c), (0, a), (qm1, -a)])
    if kind == "involution":
        r = draw(st.sampled_from([r for r in range(1, q) if (r * r - 1) % qm1 == 0]))
        if r == 1 and q > 2 and draw(st.booleans()):
            return SparsePoly.from_pairs(field, [(1 + lift, -field.one()), (0, b)])
        a = field.pow_alpha(qm1 // gcd(r + 1, qm1) * draw(st.integers(0, qm1)))
        return SparsePoly.from_pairs(field, [(r + lift, a)])
    exps = st.one_of(st.integers(0, q - 1), st.integers(q, 3 * q), st.just(0))
    t = draw(st.integers(1, max_terms))
    pairs = draw(st.lists(st.tuples(exps, st.integers(1, q - 1)), min_size=t, max_size=t))
    return SparsePoly.from_pairs(field, [(e, field.element(c)) for e, c in pairs])


# table-backed fields of every kernel, swept whole (q <= 16) or in chunks
WHOLE_SWEEP_FIELDS = [make_field(p, n) for p, n in [(2, 1), (3, 1), (2, 2), (7, 1), (3, 2),
                                                    (2, 4)]]
CHUNKED_SWEEP_FIELDS = [make_field(p, n) for p, n in
                        [(5, 2), (3, 3), (2, 6), (3, 4), (11, 2), (2, 7), (5, 3),
                         (13, 2), (3, 5), (251, 1), (2, 8)]]


@settings(max_examples=250, derandomize=True, deadline=None)
@given(data=st.data())
def test_sweep_report_matches_the_pointwise_reference(data):
    field = data.draw(st.one_of(st.sampled_from(CHUNKED_SWEEP_FIELDS),
                                st.sampled_from(WHOLE_SWEEP_FIELDS + table_free_fields())))
    f = data.draw(_sweep_polys(field, field.q + 5))
    assert _fields(sweep(f)) == _reference_report(f)


@settings(max_examples=12, derandomize=True, deadline=None)
@given(data=st.data())
def test_sweep_report_matches_the_pointwise_reference_on_larger_fields(data):
    field = data.draw(st.sampled_from([make_field(2, 12), make_field(3, 8)]))
    f = data.draw(_sweep_polys(field, 5))
    assert _fields(sweep(f)) == _reference_report(f)


def _counted_points(monkeypatch) -> list[int]:
    """The sizes of the point lists the evaluator of log_values is given,
    appended as sweeps run."""
    points = []
    log_values = SparsePoly.log_values

    def counting(self):
        values = log_values(self)
        return lambda ks: points.append(len(ks)) or values(ks)

    monkeypatch.setattr(SparsePoly, "log_values", counting)
    return points


def test_a_non_permutation_sweep_stops_early(monkeypatch):
    # over 2^16 a non-permutation is decided, witness and all, from far
    # fewer than q points; the points counted are those the evaluator of
    # log_values is given, in the encoding-order chunks of the prefix,
    # whose first repeat is the witness
    field = make_field(2, 16)
    f = parse_poly(field, "a^3*x^77 + x^5 + a*x")
    points = _counted_points(monkeypatch)
    report = sweep(f)
    assert not report.is_permutation
    assert sum(points) < field.q // 16
    full = oracle._check_table(field, f.value_table())
    assert _fields(report) == _fields(full)


def test_a_cube_map_of_2_16_stops_within_a_thousand_points(monkeypatch):
    # x^3 is 3-to-1 on the nonzero elements of 2^16, a symmetry a scan in
    # log order, x = alpha^k, would first meet at k = (q - 1)/3
    field = make_field(2, 16)
    points = _counted_points(monkeypatch)
    report = sweep(parse_poly(field, "x^3"))
    assert not report.is_permutation
    assert sum(points) < 1000
    a, b = report.witness
    assert a != b and a**3 == b**3


@pytest.mark.parametrize("p, n, text", [(3, 11, "x^3 + a*x"), (5, 7, "a^3*x^7 + 2*x^2")])
def test_a_non_permutation_above_the_table_limit_stops_within_its_prefix(monkeypatch, p, n,
                                                                          text):
    # the first sweep builds the tables of a field above TABLE_LIMIT and
    # stops as on table-backed fields, within the encoding-order prefix:
    # x^3 + a*x is 3-to-1 over 3^11 (-a is a square), and the two-term map
    # of 5^7 repeats as a random map would
    field = make_field(p, n)
    f = parse_poly(field, text)
    points = _counted_points(monkeypatch)
    report = sweep(f)
    assert not report.is_permutation
    assert sum(points) < oracle._PREFIX_ROOTS * isqrt(field.q)
    assert _fields(report) == _fields(oracle._check_table(field, f.value_table()))


def _prefix_points(q: int) -> int:
    """The points of a sweep's encoding-order prefix, x = 0 included."""
    return min(oracle._PREFIX_ROOTS * isqrt(q), q >> 1)


def test_a_permutation_that_is_no_involution_takes_no_table_in_encoding_order(monkeypatch):
    # it fails f(f(x)) = x at once, and its values in log order are marked
    # and found to cover the field: the evaluator sees the prefix and one
    # log-order call, and neither the gather into encoding order nor a
    # scan for a repeat past the prefix (which reads that table) runs
    field = make_field(2, 16)
    q = field.q
    f = parse_poly(field, "a^36187*x^58403")
    points = _counted_points(monkeypatch)
    calls = []
    for name in ("_gather", "_first_repeat"):
        monkeypatch.setattr(oracle, name, lambda *args, name=name, wrapped=getattr(oracle, name):
                            calls.append((name, len(args[1]))) or wrapped(*args))
    report = sweep(f)
    assert report.is_permutation and report.is_involution is False
    assert calls and all(name == "_first_repeat" and n <= _prefix_points(q) for name, n in calls)
    assert sum(points) == _prefix_points(q) - 1 + q - 1
    assert points[-1] == q - 1
    bad, back = report.witness
    assert f.evaluate(f.evaluate(bad)) == back != bad
    assert all(f.evaluate(f.evaluate(x)) == x for x in map(field.element, range(bad.enc)))


def _involution_table(rng, q: int, cycle: int | None = None, beyond: int = 0) -> list[int]:
    """A random involution on encodings, its points fixed or swapped in
    pairs, or with cycle given a permutation that is one but for the
    3-cycle cycle -> b -> c -> cycle, b and c drawn above cycle and from
    beyond on, so that cycle is its first x with f(f(x)) != x."""
    table = list(range(q))
    used = []
    if cycle is not None:
        b, c = rng.sample(range(max(beyond, cycle + 1), q), 2)
        table[cycle], table[b], table[c] = b, c, cycle
        used = [cycle, b, c]
    rest = [x for x in range(q) if x not in used]
    rng.shuffle(rest)
    for u, v in zip(rest[::2], rest[1::2]):
        if rng.random() < 0.8:
            table[u], table[v] = v, u
    return table


AROUND_THE_PREFIX = ["3-cycle past the prefix", "offender at the prefix's last point",
                     "offender's image past the prefix", "offender at the first chunk's edge",
                     "collision past the prefix"]


@pytest.mark.parametrize("kind", AROUND_THE_PREFIX, ids=["cycle-past", "offender-last",
                                                         "image-past", "chunk-edge",
                                                         "collision-past"])
@pytest.mark.parametrize("field", [make_field(2, 8), make_field(3, 5)], ids=["2^8", "3^5"])
@settings(max_examples=2, derandomize=True, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_maps_built_around_the_prefix_match_the_pointwise_reference(field, kind, rng):
    # value tables interpolated so that the prefix passes and the map fails
    # past it, or the first offender sits at an edge: an involution on the
    # prefix with a 3-cycle past it; a first offender x = n - 1, x < n - 1,
    # or x at either side of the end of the first chunk, where the pass
    # before the whole table is gathered stops, whose image f(x) lies past
    # the prefix; and a map injective on the prefix (a permutation or an
    # involution there) whose first repeat lies past it
    q, n = field.q, _prefix_points(field.q)
    if kind == "collision past the prefix":
        table = _involution_table(rng, q) if rng.random() < 0.5 else rng.sample(range(q), q)
        v = rng.randrange(n, q)
        table[v] = table[rng.choice([x for x in range(q) if x != v])]
    else:
        cycle = {"3-cycle past the prefix": rng.randrange(n, q - 2),
                 "offender at the prefix's last point": n - 1,
                 "offender's image past the prefix": rng.randrange(n - 1),
                 "offender at the first chunk's edge": oracle._FIRST_CHUNK - rng.randrange(2)}[kind]
        table = _involution_table(rng, q, cycle, n)
    f = interpolate_table(field, table)
    expected = _reference_report(f)
    if kind == "collision past the prefix":
        assert not expected[0] and expected[3][1] >= n
    else:
        assert expected[:2] == (True, False) and expected[3] == (cycle, table[table[cycle]])
        assert table[cycle] >= n
    assert _fields(sweep(f)) == expected


def test_an_involution_sweep_evaluates_the_field_once_past_its_prefix(monkeypatch):
    # a permutation costs the encoding-order prefix plus one log-order
    # call over every nonzero point, and no more
    field = make_field(2, 12)
    q = field.q
    f = parse_poly(field, "a^63*x^64")   # a^65 = 1, so f(f(x)) = x^4096 = x
    points = _counted_points(monkeypatch)
    report = sweep(f)
    assert report.is_permutation and report.is_involution
    assert sum(points) <= q - 1 + oracle._PREFIX_ROOTS * isqrt(q)
    assert points[-1] == q - 1


@st.composite
def _structured_non_permutations(draw, field):
    """Non-permutations whose values repeat on structured sets: forms
    x^r h(x^s) with gcd(r, s) > 1, constant on the cosets of mu_g; forms
    with gcd(r, s) = 1 whose map z -> z^r h(z)^s on mu_d collides (or
    hits 0); monomials c*x^e with gcd(e, q - 1) > 1; and permutations
    c*x^e with 0 moved onto the value of some y != 0."""
    q, qm1 = field.q, field.q - 1
    kind = draw(st.sampled_from(["gcd(r, s) > 1", "collides on mu_d", "power", "moved zero"]))
    c = field.element(draw(st.integers(1, qm1)))
    if kind == "power":
        e = draw(st.sampled_from([e for e in range(2, qm1) if gcd(e, qm1) > 1]))
        return SparsePoly.from_pairs(field, [(e, c)])
    if kind == "moved zero":   # c*x^e + a*(1 - x^(q-1)) with a = c*y^e
        e = draw(st.sampled_from([e for e in range(1, q) if gcd(e, qm1) == 1]))
        a = c * field.element(draw(st.integers(1, qm1))) ** e
        return SparsePoly.from_pairs(field, [(e, c), (0, a), (qm1, -a)])
    s = draw(st.sampled_from([s for s in range(2, qm1) if qm1 % s == 0 and qm1 // s <= 64]))
    d = qm1 // s
    coprime = kind == "collides on mu_d"
    r = draw(st.sampled_from([r for r in range(1, qm1) if (gcd(r, s) == 1) == coprime]))
    h = SparsePoly.from_pairs(field, [(draw(st.integers(0, d - 1)),
                                       field.element(draw(st.integers(1, qm1))))
                                      for _ in range(draw(st.integers(1, 3)))])
    if coprime:
        _, mu = field.subgroup(d)
        induced = [z**r * h.evaluate(z)**s for z in mu]
        assume(len(set(induced)) < d or field.zero() in induced)
    return SparsePoly.from_pairs(field, [(r + s * e, c) for e, c in h.terms.items()])


STRUCTURED_FIELDS = [make_field(2, 8), make_field(3, 5), make_field(2, 12), make_field(3, 8)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_structured_non_permutations_match_the_pointwise_reference(data):
    field = data.draw(st.sampled_from(STRUCTURED_FIELDS))
    f = data.draw(_structured_non_permutations(field))
    expected = _reference_report(f)
    assert not expected[0]
    assert _fields(sweep(f)) == expected
