"""Family constructors: every generated map is cross-checked against the
brute-force oracle, and every admissibility gate is exercised from both
sides with frozen counts."""
from __future__ import annotations

import random
import time

import pytest

from invopoly.criterion import check_iff_subgroup, check_involution
from invopoly.errors import (
    BaseNotInvolution,
    EvenQNoSolution,
    HValueZero,
    HypothesisViolated,
    Overflow,
    ParseError,
    PreconditionViolated,
    RSquareCondition,
    UnknownFamily,
    WrongFieldShape,
)
from invopoly.families import (
    FAMILIES,
    FAMILY_IDS,
    FamilySpec,
    _cond_cor_qb,
    _cond_geometric,
    cor_exm_case_verdict,
    cor_exm_gcd_verdict,
    gen_conj_symmetric,
    gen_cor_exm,
    gen_cor_m4d4,
    gen_cor_mdq1,
    gen_cor_qb,
    gen_geometric,
    gen_palindromic,
    gen_reversal,
    lift_involution,
    omega_set,
    validate,
)
from invopoly.gf import make_field
from invopoly.polyring import (
    RhsForm, SparsePoly, interpolate_on_subgroup, interpolate_table, parse_poly)
from invopoly.oracle import sweep


def _is_involution(f) -> bool:
    rep = sweep(f)
    return bool(rep.is_permutation and rep.is_involution)


# -- conjugate-symmetric family ---------------------------------------------

def test_conj_symmetric_worked(f25):
    rhs = gen_conj_symmetric(f25, 19, {1: 1})
    f = rhs.expand().reduce_exponents()
    assert sorted(f.terms) == [15, 23]
    assert _is_involution(f)
    # r = 19 admits every position, r = 11 only the pivot pair
    assert omega_set(5, 19) == set(range(6))
    assert omega_set(5, 11) == {0, 3}


def test_conj_symmetric_self_paired(f25):
    # position 3 is its own conjugate partner, so the two copies merge
    rhs = gen_conj_symmetric(f25, 11, {3: 2})
    f = rhs.expand().reduce_exponents()
    assert str(f) == "a^12*x^23"
    assert _is_involution(f)


def test_conj_symmetric_identity():
    # every admissible one-term h over F_9, F_25 and F_49: h is fixed by
    # Frobenius on mu_{q+1} and b^{(r^2-1)/(q-1)} * h(b^r) = h(b) there
    built = dict.fromkeys((3, 5, 7), 0)
    for q in built:
        ext = make_field(q, 2)
        _, mu = ext.subgroup(q + 1)
        for r in range(q - 2, q * q - 1, q - 1):
            if 2 * ((r * r - 1) // (q - 1)) % (q + 1):
                continue
            for i in sorted(omega_set(q, r)):
                for v in (ext.one(), ext.alpha):
                    try:
                        h = gen_conj_symmetric(ext, r, {i: v}).h
                    except HValueZero:
                        continue
                    for b in mu:
                        hb = h.evaluate(b)
                        assert hb**q == hb, (q, r, i, v, b)
                        assert b ** ((r * r - 1) // (q - 1)) * h.evaluate(b**r) == hb
                    built[q] += 1
    assert built == {3: 20, 5: 24, 7: 40}


def test_conj_symmetric_rejections(f7, f25):
    with pytest.raises(PreconditionViolated, match="quadratic-extension"):
        gen_conj_symmetric(f7, 5, {0: 1})
    with pytest.raises(PreconditionViolated, match="double-exponent"):
        gen_conj_symmetric(f25, 3, {2: 1})
    with pytest.raises(PreconditionViolated, match="positions-admissible"):
        gen_conj_symmetric(f25, 11, {1: 1})
    with pytest.raises(HValueZero):
        gen_conj_symmetric(f25, 19, {0: 1, 3: 1})
    with pytest.raises(PreconditionViolated):
        omega_set(5, 4)


# -- two-term corollary -----------------------------------------------------

def test_cor_qb_square_classes(f9, f25):
    # q = 5 (1 mod 4) takes squares, q = 3 (3 mod 4) takes non-squares
    got = gen_cor_qb(f25, 1, f25.alpha ** 2)
    assert (got.r, got.s) == (19, 4)
    assert _is_involution(got.expand())
    with pytest.raises(PreconditionViolated, match="residue-square-match"):
        gen_cor_qb(f25, 1, f25.alpha)
    assert _is_involution(gen_cor_qb(f9, 1, f9.alpha).expand())
    with pytest.raises(PreconditionViolated, match="residue-square-match"):
        gen_cor_qb(f9, 1, f9.alpha ** 2)


def test_cor_qb_sufficient_not_necessary(f9, f25):
    # exhaustive (i, b): every admissible pair is an involution, and some
    # rejected pairs are involutions too, so the gate is one-sided
    frozen = {3: (12, 2, 10), 5: (60, 8, 52)}
    for ext in (f9, f25):
        q = ext.p if ext.n == 2 else None
        assert q is not None
        r = q * q - q - 1
        admissible = rejected_involution = rejected_not = 0
        for i in range(1, q + 1):
            for benc in range(1, ext.q):
                b = ext.element(benc)
                ok = all(c.ok for c in _cond_cor_qb(ext, i, b))
                h = SparsePoly.from_pairs(
                    ext, [(i % (q + 1), b), (q * i % (q + 1), b ** q)])
                inv = (not h.is_zero
                       and _is_involution(RhsForm(ext, r, q - 1, h).expand()))
                if ok:
                    got = gen_cor_qb(ext, i, b)
                    assert _is_involution(got.expand())
                    assert inv
                    admissible += 1
                elif inv:
                    rejected_involution += 1
                else:
                    rejected_not += 1
        assert (admissible, rejected_involution, rejected_not) == frozen[q]
        assert rejected_involution > 0


# -- palindromic family -----------------------------------------------------

def test_palindromic_basic(f9):
    rhs = gen_palindromic(f9, 3, 2, 3, {0: 1})
    assert str(rhs.expand().reduce_exponents()) == "x^3"
    assert _is_involution(rhs.expand())


def test_palindromic_rejections(f9, f64):
    with pytest.raises(HValueZero):
        gen_palindromic(f9, 3, 2, 3, {0: 1, 1: 1})
    omega = f64.pow_alpha(21)
    with pytest.raises(PreconditionViolated, match="mirror-consistent"):
        gen_palindromic(f64, 4, 3, 20, {0: f64.one(), 1: omega})
    with pytest.raises(PreconditionViolated, match="base-subfield"):
        gen_palindromic(f64, 4, 3, 20, {0: f64.alpha})


def test_mdq1_is_palindromic_special_case(f64):
    a = f64.pow_alpha(21)
    b = a * a
    via_family = gen_cor_mdq1(f64, a, b)
    direct = gen_palindromic(f64, 4, 3, 20, {0: b, 1: b, 2: a})
    assert via_family.r == direct.r == 20
    assert via_family.h.terms == direct.h.terms


def test_mdq1_worked(f64):
    a = f64.pow_alpha(21)
    b = a * a
    rhs = gen_cor_mdq1(f64, a, b)
    assert str(rhs.expand()) == "a^21*x^62 + a^42*x^41 + a^42*x^20"
    assert _is_involution(rhs.expand())


def test_mdq1_subfield_sweep(f64):
    # all (a, b) over the order-4 subfield: 9 nonvanishing pairs work
    sub = [f64.zero()] + [f64.pow_alpha(21 * i) for i in range(3)]
    wins = hzero = 0
    for a in sub:
        for b in sub:
            try:
                rhs = gen_cor_mdq1(f64, a, b)
            except HValueZero:
                hzero += 1
                continue
            assert _is_involution(rhs.expand())
            wins += 1
    assert (wins, hzero) == (9, 7)


def test_mdq1_rejections(f8, f9, f64):
    a = f64.pow_alpha(21)
    with pytest.raises(PreconditionViolated, match="base-subfield"):
        gen_cor_mdq1(f64, f64.alpha, a)
    with pytest.raises(WrongFieldShape):
        gen_cor_mdq1(f9, f9.one(), f9.one())
    with pytest.raises(WrongFieldShape):
        gen_cor_mdq1(f8, f8.one(), f8.one())


def test_m4d4_sweep(f3_8, f81):
    g9 = f3_8.pow_alpha(820)
    sample = gen_cor_m4d4(f3_8, g9, f3_8.one(), g9 ** 2)
    assert sorted(sample.expand().terms) == [1639, 3279, 4919, 6559]
    assert _is_involution(sample.expand())
    sub = [f3_8.zero()] + [f3_8.pow_alpha(820 * i) for i in range(8)]
    wins = hzero = 0
    for a in sub:
        for b in sub:
            for c in sub:
                try:
                    rhs = gen_cor_m4d4(f3_8, a, b, c)
                except HValueZero:
                    hzero += 1
                    continue
                assert check_involution(rhs).verdict
                wins += 1
    assert (wins, hzero) == (512, 217)
    with pytest.raises(WrongFieldShape):
        gen_cor_m4d4(f81, f81.one(), f81.one(), f81.one())


# -- reversal family --------------------------------------------------------

def test_reversal_root_is_definitive_no(f9):
    # a^2 + (a^2)^3 = 0 in the order-9 field, so h vanishes at 1
    out = gen_reversal(f9, 1, 4, {0: f9.pow_alpha(2)})
    assert not out.involution
    assert out.root == f9.one()
    assert not _is_involution(out.rhs.expand())
    ok = gen_reversal(f9, 1, 4, {0: f9.one()})
    assert ok.involution and ok.root is None
    assert _is_involution(ok.rhs.expand())


def test_reversal_matches_oracle_everywhere():
    # seeded sweep over three quadratic extensions; the root test, the
    # criterion, and the oracle must agree on every instance
    rng = random.Random(5)
    agree = roots = 0
    for q in (3, 5, 7):
        ext = make_field(q, 2)
        for _ in range(80):
            r = (q - 2) + (q - 1) * rng.randrange(0, 4)
            if r < 1:
                continue
            deg = (r - 1) % (q + 1) + (q + 1) * rng.randrange(0, 2)
            coeffs = {0: ext.element(rng.randrange(1, ext.q))}
            for _ in range(rng.randrange(0, 3)):
                i = rng.randrange(0, deg + 1)
                coeffs.setdefault(i, ext.element(rng.randrange(0, ext.q)))
            mid = deg // 2
            if deg % 2 == 0 and mid in coeffs and coeffs[mid] ** q != coeffs[mid]:
                del coeffs[mid]
                if not coeffs.get(0) or coeffs[0].is_zero:
                    continue
            if 0 not in coeffs or coeffs[0].is_zero:
                continue
            try:
                out = gen_reversal(ext, r, deg, coeffs)
            except PreconditionViolated:
                continue
            assert _is_involution(out.rhs.expand()) == out.involution
            assert check_involution(out.rhs).verdict == out.involution
            agree += 1
            if out.root is not None:
                roots += 1
    assert (agree, roots) == (179, 79)


# -- two-term reversal corollary --------------------------------------------

def test_exm_trichotomy_small_fields():
    # exhaustive over a: the residue-class table, the root-avoidance power
    # test, and the oracle agree for every nonzero a
    frozen = {3: 6, 5: 12, 7: 36}
    for q in (3, 5, 7):
        ext = make_field(q, 2)
        admissible = 0
        for aenc in range(1, ext.q):
            a = ext.element(aenc)
            case = cor_exm_case_verdict(ext, a)
            assert case == cor_exm_gcd_verdict(ext, a)
            f = SparsePoly.from_pairs(
                ext, [(q * q - 3 * q + 1, a), (q - 2, a ** q)])
            assert _is_involution(f) == case
            if case:
                admissible += 1
                assert _is_involution(gen_cor_exm(ext, a).expand())
        assert admissible == frozen[q]


def test_exm_rejections(f16, f25):
    with pytest.raises(EvenQNoSolution):
        gen_cor_exm(f16, f16.alpha)
    assert cor_exm_case_verdict(f16, f16.alpha) is False
    assert cor_exm_gcd_verdict(f16, f16.alpha) is False
    with pytest.raises(PreconditionViolated):
        gen_cor_exm(f25, f25.zero())
    assert cor_exm_case_verdict(f25, f25.zero()) is False


# -- geometric family -------------------------------------------------------

def test_geometric_frozen_instance(f3_8):
    f = gen_geometric(f3_8, 9, 5, 4, 4)
    assert str(f) == "x^3937 + x^2625 + x^1313 + x"
    assert _is_involution(f)


def test_geometric_term_count_scan(f81):
    valid = []
    for k in range(1, 21):
        if not all(c.ok for c in _cond_geometric(f81, 3, 4, 4, k)):
            continue
        valid.append(k)
        assert _is_involution(gen_geometric(f81, 3, 4, 4, k))
    assert valid == [1, 5, 13, 17]


@pytest.mark.parametrize("k", [10001, 100000001])   # both pass every check
def test_geometric_term_count_bounded(f81, k):
    start = time.perf_counter()
    with pytest.raises(Overflow):
        gen_geometric(f81, 3, 4, 4, k)
    assert time.perf_counter() - start < 0.5


def test_geometric_rejections(f16, f81):
    # (m/2)(q^2-1)/(2d) = 15/10 is not an integer for the even base
    with pytest.raises(PreconditionViolated, match="inner-quotient-integral"):
        gen_geometric(f16, 4, 5, 2, 1)
    with pytest.raises(PreconditionViolated, match="d-divides-q-plus-1"):
        gen_geometric(f81, 3, 3, 4, 1)
    with pytest.raises(PreconditionViolated, match="k-positive"):
        gen_geometric(f81, 3, 4, 4, 0)


# -- subfield lifting -------------------------------------------------------

def test_lift_negation_and_frobenius(f4, f9, f16, f3_6):
    # base negation x -> -x lifts to a monomial with the -1 scalar
    h = SparsePoly.from_pairs(f9, [(0, f9.scalar(-1))])
    lifted = lift_involution(f9, 3, 1, h, ext=f3_6)
    assert str(lifted.expand()) == "a^364*x"
    assert lifted.expand().coefficient(1) == f3_6.scalar(-1)
    assert _is_involution(lifted.expand())
    # base Frobenius x -> x^4 on the order-4 field lifts to x^4
    lifted2 = lift_involution(f4, 2, 4, SparsePoly.from_pairs(f4, [(0, f4.one())]),
                              ext=f16)
    assert str(lifted2.expand()) == "x^4"
    assert _is_involution(lifted2.expand())


def test_lift_builds_its_own_extension_from_a_prime_base(f5):
    # without ext the lift makes F_125 itself, and F_5 embeds by its scalars
    h = SparsePoly.from_pairs(f5, [(0, f5.element(4))])
    lifted = lift_involution(f5, 3, 1, h)
    assert lifted == lift_involution(f5, 3, 1, h, ext=make_field(5, 3))
    assert str(lifted.expand()) == "a^62*x"
    assert _is_involution(lifted.expand())


def test_lift_rejections(f4, f9, f16, f64):
    h_x = SparsePoly.from_pairs(f4, [(1, f4.one())])
    with pytest.raises(BaseNotInvolution) as exc:
        lift_involution(f4, 2, 1, h_x, ext=f16)
    # the criterion's first failing point on mu_3 = {1, a^5, a^10} of F_16
    assert exc.value.witness == f16.pow_alpha(5)
    h1 = SparsePoly.from_pairs(f4, [(0, f4.one())])
    with pytest.raises(PreconditionViolated, match="gcd"):
        lift_involution(f4, 3, 1, h1)
    h9 = SparsePoly.from_pairs(f9, [(0, f9.one())])
    with pytest.raises(RSquareCondition):
        lift_involution(f9, 3, 2, h9)
    with pytest.raises(WrongFieldShape):
        lift_involution(f9, 3, 1, h9, ext=f64)
    with pytest.raises(WrongFieldShape):
        lift_involution(f9, 3, 1, h1)


def _lift_hits(base, m, ext, rs) -> list:
    """(r, h) for every nonzero linear h that lifts; BaseNotInvolution must
    come exactly when the oracle finds x^r * h(x)^m no involution of base."""
    hits = []
    for r in rs:
        for e1 in range(base.q):
            for e0 in range(base.q):
                h = SparsePoly.from_pairs(
                    base, [(1, base.element(e1)), (0, base.element(e0))])
                if h.is_zero:
                    continue
                table = [(x**r * h.evaluate(x) ** m).enc for x in base.elements()]
                base_ok = _is_involution(interpolate_table(base, table))
                try:
                    lift_involution(base, m, r, h, ext=ext)
                except BaseNotInvolution:
                    assert not base_ok, (r, str(h))
                    continue
                assert base_ok, (r, str(h))
                hits.append((r, str(h)))
    return hits


def test_lift_exhaustive_linear_scan(f8, f9, f64, f3_6):
    # all linear h over the two small bases: only the maps that really are
    # base-field involutions survive
    assert _lift_hits(f8, 2, f64, (1, 8, 10, 17)) == [(1, "a^0"), (8, "a^0")]
    # a^4 = -1 in the order-9 field: the four hits are x, -x, x^90, -x^90
    assert _lift_hits(f9, 3, f3_6, (1, 90)) == [
        (1, "a^0"), (1, "a^4"), (90, "x"), (90, "a^4*x")]


# -- subgroup-only involution test ------------------------------------------

def test_iff_subgroup_decides(f7):
    yes = RhsForm(f7, 1, 2, parse_poly(f7, "x^2"))
    assert check_iff_subgroup(yes) is True
    assert _is_involution(yes.expand())
    no = RhsForm(f7, 1, 2, parse_poly(f7, "x"))
    assert check_iff_subgroup(no) is False
    assert not _is_involution(no.expand())


def test_iff_subgroup_hypotheses(f7, f64):
    a = f64.pow_alpha(21)
    rhs = gen_cor_mdq1(f64, a, a * a)
    with pytest.raises(HypothesisViolated, match="gcd"):
        check_iff_subgroup(rhs)
    with pytest.raises(HypothesisViolated) as exc:
        check_iff_subgroup(RhsForm(f7, 1, 2, parse_poly(f7, "x + 1")))
    assert exc.value.witness == f7.element(2)
    with pytest.raises(HypothesisViolated, match="r\\^2"):
        check_iff_subgroup(RhsForm(f7, 2, 2, parse_poly(f7, "x")))


def test_iff_subgroup_matches_oracle():
    rng = random.Random(9)
    from math import gcd
    agreements = 0
    for q in (7, 11, 13, 25):
        fq = make_field(q) if q != 25 else make_field(5, 2)
        for s in [t for t in range(1, q) if (q - 1) % t == 0]:
            d = (q - 1) // s
            if gcd(s, d) != 1 or d == 1:
                continue
            _, mu = fq.subgroup(d)
            for r in [t for t in range(1, s + 1) if (t * t - 1) % s == 0]:
                for _ in range(6):
                    vals = [mu[rng.randrange(d)] for _ in range(d)]
                    h = interpolate_on_subgroup(fq, vals)
                    if h.is_zero:
                        continue
                    rhs = RhsForm(fq, r, s, h)
                    got = check_iff_subgroup(rhs)
                    assert got == _is_involution(rhs.expand())
                    assert got == check_involution(rhs).verdict
                    agreements += 1
    assert agreements == 120


# -- uniform validation front end -------------------------------------------

def test_validate_each_family(f25, f64, f9, f3_8, f3_6):
    cases = [
        ("thm-conj-symmetric", f25, {"r": "19", "h1": "1"}),
        ("cor-qb", f25, {"i": "1", "b": "2"}),
        ("thm-palindromic", f9, {"q": "3", "d": "2", "r": "3", "h0": "1"}),
        ("cor-mdq1", f64, {"a": "a^21", "b": "a^42"}),
        ("cor-m4d4", f3_8, {"a": "a^820", "b": "1", "c": "a^1640"}),
        ("thm-reversal", f9, {"r": "1", "d": "4", "a0": "1"}),
        ("cor-exm", f25, {"a": "2"}),
        ("thm-geometric", f3_8, {"q": "9", "d": "5", "m": "4", "k": "4"}),
        ("lift", f3_6, {"q": "9", "m": "3", "r": "90", "h": "x"}),
    ]
    assert [fid for fid, _, _ in cases] == list(FAMILY_IDS)
    for fid, fld, params in cases:
        checks = validate(FamilySpec(fid, fld, params))
        assert checks and all(c.ok for c in checks), fid
        rhs, f = FAMILIES[fid].generate(fld, params)
        assert rhs is None or rhs.expand() == f, fid
        assert _is_involution(f), fid


def test_validate_reports_failures(f25, f7):
    checks = validate(FamilySpec("cor-qb", f25, {"i": "1", "b": "a^1"}))
    bad = [c for c in checks if not c.ok]
    assert [c.name for c in bad] == ["residue-square-match"]
    checks = validate(FamilySpec("cor-exm", f7, {"a": "2"}))
    assert [c.name for c in checks] == ["field-is-quadratic-extension"]
    assert not checks[0].ok


def test_validate_input_errors(f25):
    with pytest.raises(UnknownFamily):
        validate(FamilySpec("no-such-family", f25, {}))
    with pytest.raises(ParseError, match="missing"):
        validate(FamilySpec("cor-qb", f25, {"i": "1"}))
