"""Interpolation-based constructions: worked examples, exhaustive counts,
and the failure direction (bad parameters must be refused)."""

from __future__ import annotations

import itertools
import random
from math import comb, gcd, prod

import pytest

from invopoly.construct import (
    construct_cor_r1,
    construct_cor_rq43,
    construct_d2,
    construct_d3,
    construct_from_inverse,
    construct_general,
    fixed_point_choices,
    involutory_exponents,
    partner_offset,
)
from invopoly.criterion import (
    SubgroupInvolution,
    check_involution,
    check_permutation,
    induced_subgroup_involution,
)
from invopoly.errors import (
    CharacteristicDividesD,
    EvenCharacteristic,
    NotADivisor,
    PreconditionViolated,
    RSquareCondition,
)
from invopoly.gf import make_field
from invopoly.oracle import sweep
from invopoly.polyring import RhsForm, SparsePoly, parse_poly


def _is_involution(f):
    report = sweep(f)
    return bool(report.is_permutation and report.is_involution)


def test_involutory_exponents_frozen():
    assert involutory_exponents(12) == [1, 5, 7, 11]
    assert involutory_exponents(1) == [1]
    assert involutory_exponents(2) == [1]
    assert involutory_exponents(8) == [1, 3, 5, 7]


def test_fixed_point_and_partner_offsets():
    s, r = 12, 5
    for n in fixed_point_choices(s, r):
        assert n * (r + 1) % s == 0
    for n in range(s):
        partner = partner_offset(s, r, n)
        assert (partner + r * n) % s == 0


def test_general_worked_example(f7):
    rhs = construct_general(f7, 2, SubgroupInvolution.inversion(3), 1, [0, 0, 0])
    assert rhs.expand() == parse_poly(f7, "2*x^5 + 3*x^3 + 3*x")
    assert _is_involution(rhs.expand())
    assert construct_from_inverse(f7, 2, 1, [0, 0, 0]).expand() == rhs.expand()


@pytest.mark.parametrize("p, n, d", [(2, 20, 11), (3, 12, 5)])
def test_general_construction_above_table_limit_leaves_the_walk_unbuilt(p, n, d):
    # work on mu_d stays O(d): making the field, interpolating h, both
    # checks and printing never walk alpha's powers, which only a value
    # table pays for
    field = make_field(p, n)
    assert field._exp is None
    rhs = construct_general(field, (field.q - 1) // d, SubgroupInvolution.inversion(d), 1)
    assert check_involution(rhs).verdict and check_permutation(rhs).ok
    assert str(rhs.expand())
    assert field._exp is None


def test_constructions_on_mu_d_leave_the_compact_lift_unbuilt():
    # interpolation, the transform and the walk read d points of mu_d from
    # the exp list as it is: the 2^16-entry array('I') that whole-field
    # passes keep (Field._words) is not built for them, at d = 3 nor at the
    # split d = 85
    field = make_field(2, 16)
    assert field._words is None
    f = construct_cor_r1(field, 5)
    rhs = construct_general(field, 771, SubgroupInvolution.inversion(85), 1)
    assert check_involution(rhs).verdict and check_permutation(rhs).ok
    assert str(f) and str(rhs.expand())
    assert field._words is None
    assert _is_involution(f)   # the oracle's whole-field pass builds it
    assert field._words is not None


def test_general_recovers_sigma_randomly(f13, f16):
    rng = random.Random(77)
    for field in (f13, f16):
        q = field.q
        for _ in range(60):
            s = rng.choice([t for t in range(1, q) if (q - 1) % t == 0])
            d = (q - 1) // s
            r = rng.choice(involutory_exponents(s))
            mapping = list(range(d))
            order = list(range(d))
            rng.shuffle(order)
            for i in range(0, d - 1, 2):
                if rng.random() < 0.7:
                    a, b = order[i], order[i + 1]
                    mapping[a], mapping[b] = b, a
            sigma = SubgroupInvolution(mapping)
            offsets = [None] * d
            for i in range(d):
                if mapping[i] == i:
                    offsets[i] = rng.choice(fixed_point_choices(s, r))
                elif offsets[i] is None:
                    n_i = rng.randrange(s)
                    offsets[i] = n_i
                    offsets[mapping[i]] = partner_offset(s, r, n_i)
            rhs = construct_general(field, s, sigma, r, offsets)
            assert _is_involution(rhs.expand())
            assert induced_subgroup_involution(rhs) == sigma


def test_general_rejects_bad_offsets(f7, f13):
    # pairing 1<->2 under r=1 needs n2 = -n1 mod 2
    with pytest.raises(PreconditionViolated):
        construct_general(f7, 2, SubgroupInvolution.inversion(3), 1, [0, 1, 0])
    # fixed index 0 under r=1 needs 2*n0 = 0 mod s; n0=1 fails for s=4
    with pytest.raises(PreconditionViolated):
        construct_general(f13, 4, SubgroupInvolution.identity(3), 1, [1, 0, 0])
    with pytest.raises(RSquareCondition):
        construct_general(f13, 6, SubgroupInvolution.identity(2), 2, [0, 0])


def test_general_refuses_non_integer_s_r_and_offsets(f7):
    # a float is refused, not truncated or failed on deep inside
    inversion = SubgroupInvolution.inversion(3)
    for call in (lambda: construct_general(f7, 2.0, inversion),
                 lambda: construct_general(f7, 2, inversion, 1.0),
                 lambda: construct_general(f7, 2, inversion, 1, [0, 0.5, 1.5])):
        with pytest.raises(TypeError):
            call()
    assert construct_general(f7, 2, inversion, True, [0, False, 0]).r == 1


def test_d2_counts_and_soundness(f5, f7, f9, f11, f13):
    frozen = {5: 6, 7: 16, 9: 28, 11: 36, 13: 52}
    for field in (f5, f7, f9, f11, f13):
        q = field.q
        s = (q - 1) // 2
        wins = 0
        for r in involutory_exponents(s):
            for a in field.elements():
                for b in field.elements():
                    try:
                        f = construct_d2(field, r, a, b)
                    except PreconditionViolated:
                        continue
                    wins += 1
                    assert _is_involution(f)
        assert wins == frozen[q], (q, wins)


def test_d2_forms_match_paper_formulas(f5, f7, f9, f11, f13):
    # the paper's explicit d = 2 coefficients and its two value conditions,
    # as the reference for the interpolation and criterion the library runs
    kinds = set()
    for field in (f5, f7, f9, f11, f13):
        s = (field.q - 1) // 2
        one, half = field.one(), field.scalar(2).inverse()
        for r in involutory_exponents(s):
            sign_r = -one if r % 2 else one
            sign_e = -one if (r * r - 1) // s % 2 else one
            for a, b in itertools.product(field.elements(), repeat=2):
                c_hi, c_lo = (a - b) * half, (a + b) * half
                failed = [name for name, ok in [
                    ("value-at-a", c_hi * a ** (s + r) + c_lo * a**r == one),
                    ("value-at-b", sign_r * c_hi * b ** (s + r) + c_lo * b**r == sign_e)]
                    if not ok]
                if failed:
                    kinds.add(tuple(failed))
                    with pytest.raises(PreconditionViolated) as exc:
                        construct_d2(field, r, a, b)
                    assert str(exc.value) == f"d = 2 conditions failed: {', '.join(failed)}"
                else:
                    assert construct_d2(field, r, a, b) == SparsePoly.from_pairs(
                        field, [(s + r, c_hi), (r, c_lo)]), (field.q, r, a, b)
    # each refusal kind occurs: phi fails at 1 only, at -1 only, or at both
    assert kinds == {("value-at-a",), ("value-at-b",), ("value-at-a", "value-at-b")}


def test_d2_rejections(f4, f13):
    with pytest.raises(EvenCharacteristic):
        construct_d2(f4, 1, f4.one(), f4.one())
    with pytest.raises(RSquareCondition):
        construct_d2(f13, 2, f13.one(), f13.one())


def test_d3_counts_and_equivalence_with_general(f7, f13, f16):
    frozen = {7: 4, 13: 24, 16: 30}
    for field in (f7, f13, f16):
        q = field.q
        s = (q - 1) // 3
        wins = 0
        for r in involutory_exponents(s):
            for n0 in range(s):
                for n1 in range(s):
                    for n2 in range(s):
                        try:
                            f = construct_d3(field, r, n0, n1, n2)
                        except PreconditionViolated:
                            continue
                        wins += 1
                        assert _is_involution(f)
        assert wins == frozen[q], (q, wins)


def _paper_form(field, r, h2, h1, h0):
    s = (field.q - 1) // 3
    return SparsePoly.from_pairs(field, [(2 * s + r, h2), (s + r, h1), (r, h0)])


def test_d3_forms_match_paper_formulas(f7, f13, f16, f64):
    # the paper's explicit coefficients, with omega = alpha^s, as the
    # reference for the interpolation the library runs
    for field in (f7, f13, f16):
        s = (field.q - 1) // 3
        one, two, three = field.one(), field.scalar(2), field.scalar(3)
        w = field.pow_alpha(s)
        w2 = w * w
        for r in involutory_exponents(s):
            for n0, n1, n2 in itertools.product(range(s), repeat=3):
                if n0 * (r + 1) % s or (n1 * r + n2) % s:
                    continue
                va = field.pow_alpha(3 * n0)
                vb = field.pow_alpha(3 * n1 + 2 - r)
                vc = field.pow_alpha(3 * n2 + 1 - 2 * r)
                h2 = ((two + w2) * va - (one + two * w2) * vb - (one - w2) * vc) \
                    / (three * (one - w))
                h1 = ((two + w) * va - (one + two * w) * vb - (one - w) * vc) \
                    / (three * (one - w2))
                h0 = (va + vb + vc) / three
                assert construct_d3(field, r, n0, n1, n2) == \
                    _paper_form(field, r, h2, h1, h0), (field.q, r, n0, n1, n2)
    for field in (f16, f64):
        s = (field.q - 1) // 3
        one = field.one()
        w = field.pow_alpha(s)
        w2 = w * w
        for n1 in range(s):
            beta = field.pow_alpha(3 * n1 + 1)
            binv = beta.inverse()
            assert construct_cor_r1(field, n1) == _paper_form(
                field, 1, one + w * beta + w2 * binv, one + w2 * beta + w * binv,
                one + beta + binv), (field.q, n1)
        for n0, n1 in itertools.product(range(s), repeat=2):
            h2 = field.pow_alpha(3 * n0)
            h0 = h2 + field.pow_alpha(3 * (n1 + 1))
            assert construct_cor_rq43(field, n0, n1) == \
                _paper_form(field, s - 1, h2, h0, h0), (field.q, n0, n1)


def _involutions(d):
    return [p for p in itertools.permutations(range(d)) if all(p[p[i]] == i for i in range(d))]


def test_encoder_is_complete_and_injective(f2, f3, f4, f5, f7, f8, f9, f11, f13, f16):
    # for small (q, s, r), three counts of involutions x^r * h(x^s) agree:
    # the oracle's over every nonzero h of degree < d, the closed count
    # N = sum_k C(d,2k) (2k-1)!! s^k gcd(r+1,s)^(d-2k), and the distinct h
    # construct_general returns over every involution of mu_d and every
    # admissible offset vector
    cases = 0
    for field in (f2, f3, f4, f5, f7, f8, f9, f11, f13, f16):
        q = field.q
        for s in [t for t in range(1, q) if (q - 1) % t == 0]:
            d = (q - 1) // s
            if q**d > 2000:
                continue
            for r in involutory_exponents(s):
                oracle = set()
                for coeffs in itertools.product(list(field.elements()), repeat=d):
                    h = SparsePoly(field, dict(enumerate(coeffs)))
                    if not h.is_zero and _is_involution(RhsForm(field, r, s, h).expand()):
                        oracle.add(h)
                g = gcd(r + 1, s)
                n = sum(comb(d, 2 * k) * prod(range(1, 2 * k, 2)) * s**k * g**(d - 2 * k)
                        for k in range(d // 2 + 1))
                built = set()
                for mapping in _involutions(d):
                    sigma = SubgroupInvolution(mapping)
                    free = [i for i in range(d) if mapping[i] >= i]
                    choices = [fixed_point_choices(s, r) if mapping[i] == i else range(s)
                               for i in free]
                    for picked in itertools.product(*choices):
                        offsets = [0] * d
                        for i, n_i in zip(free, picked):
                            offsets[i] = n_i
                            if mapping[i] != i:
                                offsets[mapping[i]] = partner_offset(s, r, n_i)
                        built.add(construct_general(field, s, sigma, r, offsets).h)
                assert len(oracle) == n == len(built), (q, s, r)
                assert oracle == built, (q, s, r)
                cases += 1
    assert cases == 37


def test_d3_rejections(f5, f9):
    with pytest.raises(CharacteristicDividesD):
        construct_d3(f9, 1, 0, 0, 0)
    with pytest.raises(NotADivisor):
        construct_d3(f5, 1, 0, 0, 0)


def test_cor_r1_smallest_case_is_frobenius(f4):
    f = construct_cor_r1(f4, 0)
    assert str(f) == "x^2"
    assert _is_involution(f)


def test_cor_r1_all_offsets(f16):
    # q = 16: beta ranges over alpha^(3*n1+1); every n1 in Z_5 works.
    # Individual coefficients may vanish for particular beta, so only
    # demand the support stays inside the three designed exponents.
    full = 0
    for n1 in range(5):
        f = construct_cor_r1(f16, n1)
        assert _is_involution(f)
        assert set(f.terms) <= {1, 6, 11}
        if sorted(f.terms) == [1, 6, 11]:
            full += 1
    assert full >= 3


def test_cor_r1_wrong_shape(f9, f8):
    from invopoly.errors import WrongFieldShape
    with pytest.raises(WrongFieldShape):
        construct_cor_r1(f9, 0)
    with pytest.raises(WrongFieldShape):
        construct_cor_r1(f8, 0)


def test_cor_rq43_degenerate_and_general(f4, f16):
    assert str(construct_cor_rq43(f4, 0, 0)) == "x^2"
    for n0 in range(5):
        for n1 in range(5):
            f = construct_cor_rq43(f16, n0, n1)
            assert _is_involution(f)
