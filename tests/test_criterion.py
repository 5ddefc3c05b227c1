"""The subgroup criterion against the brute-force oracle."""

from __future__ import annotations

import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invopoly import criterion
from invopoly.construct import (
    construct_general,
    fixed_point_choices,
    involutory_exponents,
    partner_offset,
)
from invopoly.criterion import (
    PermutationCheck,
    SubgroupInvolution,
    check_involution,
    check_permutation,
    confirm_involution,
    g_map,
    induced_subgroup_involution,
    phi_map,
    subgroup_data,
)
from invopoly.errors import (
    FieldTooLarge,
    InternalMismatch,
    NotInSubgroup,
    NotInvolutionOnSubgroup,
    PreconditionViolated,
    RSquareCondition,
)
from invopoly.gf import Element, make_field
from invopoly.oracle import sweep
from invopoly.polyring import (
    DEFAULT_CAP,
    RhsForm,
    SparsePoly,
    interpolate_on_subgroup,
    parse_poly,
)
from conftest import table_free_fields


def _random_rhs(field, rng):
    s = rng.choice([t for t in range(1, field.q) if (field.q - 1) % t == 0])
    d = (field.q - 1) // s
    r = rng.randrange(1, field.q)
    h = SparsePoly.from_pairs(
        field, [(i, field.element(rng.randrange(field.q))) for i in range(d)])
    if h.is_zero:
        h = SparsePoly.from_pairs(field, [(0, field.one())])
    return RhsForm(field, r, s, h)


def test_criterion_matches_oracle_spot_sweep(f7, f9, f13, f16):
    rng = random.Random(71)
    for field in (f7, f9, f13, f16):
        for _ in range(150):
            rhs = _random_rhs(field, rng)
            report = sweep(rhs.expand())
            oracle_inv = bool(report.is_permutation and report.is_involution)
            assert check_involution(rhs).verdict == oracle_inv
            assert check_permutation(rhs).ok == report.is_permutation


def test_worked_example_report(f7):
    rhs = RhsForm(f7, 1, 2, parse_poly(f7, "2*x^2 + 3*x + 3"))
    report = check_involution(rhs)
    assert report.verdict and report.r_condition and report.gcd_condition
    assert report.phi_all_one and report.failing_z is None
    assert check_permutation(rhs).ok


def test_r_condition_failure_is_conclusive(f7):
    # r = 2, s = 2: r^2 - 1 = 3 is odd, so no involution regardless of h
    rhs = RhsForm(f7, 2, 2, parse_poly(f7, "x + 1"))
    report = check_involution(rhs)
    assert not report.r_condition and not report.verdict
    assert report.failing_z is None
    assert not sweep(rhs.expand()).is_involution


def test_h_root_on_subgroup_blocks_permutation(f7):
    # h = x - 1 vanishes at z = 1, killing the coset above it
    rhs = RhsForm(f7, 1, 2, parse_poly(f7, "x + 6"))
    inv_report = check_involution(rhs)
    assert not inv_report.verdict
    assert inv_report.failing_z is not None
    perm = check_permutation(rhs)
    assert not perm.ok
    assert not sweep(rhs.expand()).is_permutation


def test_g_collision_yields_witness(f13):
    rng = random.Random(5)
    found = False
    for _ in range(400):
        rhs = _random_rhs(f13, rng)
        perm = check_permutation(rhs)
        if not perm.ok and perm.gcd_ok and perm.witness is not None:
            w = perm.witness
            if isinstance(w, tuple):
                z1, z2 = w
                assert g_map(rhs, z1) == g_map(rhs, z2)
                found = True
                break
    assert found


def test_induced_involution_exists_but_f_is_not_one(f4, f5):
    # h = alpha on F_4 with s = 3: the induced map on mu_1 is the identity,
    # yet f = alpha*x has order 3; the subgroup view alone cannot decide.
    rhs4 = RhsForm(f4, 1, 3, SparsePoly.from_pairs(f4, [(0, f4.alpha)]))
    sigma = induced_subgroup_involution(rhs4)
    assert sigma == SubgroupInvolution.identity(1)
    assert not check_involution(rhs4).verdict
    assert not sweep(rhs4.expand()).is_involution

    rhs5 = RhsForm(f5, 1, 2, SparsePoly.from_pairs(f5, [(0, f5.element(2))]))
    sigma5 = induced_subgroup_involution(rhs5)
    # negation swaps mu_2; inversion would be the identity there
    assert sigma5 == SubgroupInvolution([1, 0])
    assert sigma5 != SubgroupInvolution.inversion(2)
    assert not check_involution(rhs5).verdict
    assert not sweep(rhs5.expand()).is_involution


def test_induced_involution_of_worked_example(f7):
    rhs = RhsForm(f7, 1, 2, parse_poly(f7, "2*x^2 + 3*x + 3"))
    assert induced_subgroup_involution(rhs) == SubgroupInvolution.inversion(3)


def test_induced_involution_rejects_non_involutory_g(f7):
    # f = 2x: g multiplies mu_6 by 4, which has order 3
    rhs = RhsForm(f7, 1, 1, SparsePoly.from_pairs(f7, [(0, f7.element(2))]))
    with pytest.raises(NotInvolutionOnSubgroup) as exc:
        induced_subgroup_involution(rhs)
    assert exc.value.witness is not None


def test_subgroup_involution_validation():
    assert SubgroupInvolution.inversion(4)(1) == 3
    assert SubgroupInvolution.identity(3)(2) == 2
    with pytest.raises(PreconditionViolated):
        SubgroupInvolution([1, 2, 0])  # 3-cycle
    with pytest.raises(PreconditionViolated):
        SubgroupInvolution([0, 0, 1])  # not a permutation
    with pytest.raises(TypeError):
        SubgroupInvolution([0, 1.7])   # not truncated to [0, 1]
    assert SubgroupInvolution([True, False]) == SubgroupInvolution([1, 0])


def test_maps_reject_elements_outside_subgroup(f7):
    rhs = RhsForm(f7, 1, 2, parse_poly(f7, "x"))
    with pytest.raises(NotInSubgroup):
        g_map(rhs, f7.element(3))  # 3 has order 6, not in mu_3
    with pytest.raises(NotInSubgroup):
        phi_map(rhs, f7.element(5))


def test_phi_map_requires_r_condition(f7):
    rhs = RhsForm(f7, 2, 2, parse_poly(f7, "x"))
    with pytest.raises(RSquareCondition):
        phi_map(rhs, f7.one())


def test_phi_equals_one_exactly_on_involutions(f9):
    rng = random.Random(93)
    for _ in range(200):
        rhs = _random_rhs(f9, rng)
        if (rhs.r**2 - 1) % rhs.s:
            continue
        _, mu = f9.subgroup(rhs.d)
        phis = [phi_map(rhs, z) for z in mu]
        all_one = all(v == f9.one() for v in phis)
        assert all_one == bool(sweep(rhs.expand()).is_involution)


# every field with 4 <= q <= 64, all table-backed
SMALL_FIELDS = [make_field(p, n) for p, n in
                [(2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                 (5, 2), (3, 3), (2, 5), (7, 2), (2, 6)]]
PROPERTY_SETTINGS = settings(max_examples=300, derandomize=True, deadline=None)


@st.composite
def rhs_forms(draw, fields):
    field = draw(st.sampled_from(fields))
    q = field.q
    s = draw(st.sampled_from([t for t in range(1, q) if (q - 1) % t == 0]))
    d = (q - 1) // s
    # r from the admissible residues as often as at random, so that both
    # outcomes of the r-condition and of phi come up
    r = draw(st.one_of(st.integers(1, q - 1),
                       st.sampled_from([t for t in range(1, s + 1) if (t * t - 1) % s == 0])))
    pairs = draw(st.lists(st.tuples(st.integers(0, 2 * d), st.integers(0, q - 1)),
                          min_size=1, max_size=d + 1))
    h = SparsePoly.from_pairs(field, [(e, field.element(c)) for e, c in pairs])
    return RhsForm(field, r, s, h)


def _pointwise_reference(rhs):
    """(failing_z, permutation witness) from g_map and phi_map, visiting
    mu_d in the order omega^0, omega^1, ..."""
    _, mu = rhs.field.subgroup(rhs.d)
    failing = None
    if (rhs.r * rhs.r - 1) % rhs.s == 0:
        failing = next((z for z in mu if phi_map(rhs, z) != rhs.field.one()), None)
    witness = None
    seen = {}
    for z in mu:
        g = g_map(rhs, z)
        if g.is_zero:
            witness = z
            break
        if g in seen:
            witness = (seen[g], z)
            break
        seen[g] = z
    return failing, witness


def _subgroup_data_reference(rhs):
    """(l, offsets) by search: l[i] is the index of g(omega^i) in mu_d and
    offsets[i] the n in Z_s with alpha^(d*n + l[i] - i*r) = h(omega^i); or
    the first root of h on mu_d."""
    field, d, r, s = rhs.field, rhs.d, rhs.r, rhs.s
    _, mu = field.subgroup(d)
    l, offsets = [], []
    for i, z in enumerate(mu):
        hz = rhs.h.evaluate(z)
        if hz.is_zero:
            return z
        l.append(mu.index(g_map(rhs, z)))
        offsets.append(next(n for n in range(s) if field.pow_alpha(d * n + l[i] - i * r) == hz))
    return tuple(l), tuple(offsets)


def _check_against_references(rhs):
    inv, perm = check_involution(rhs), check_permutation(rhs)
    failing, witness = _pointwise_reference(rhs)
    assert inv.failing_z == failing
    if perm.gcd_ok:
        assert perm.witness == witness
    # the memo both checks shared holds what the walk learnt of h on mu_d
    # only, by the encoding of z on every field, and the involution report,
    # which a second check reads back
    _, mu = rhs.field.subgroup(rhs.d)
    assert set(rhs._memo["h"]) <= {z.enc for z in mu}
    assert rhs._memo["report"] is inv and check_involution(rhs) is inv
    assert subgroup_data(rhs) == _subgroup_data_reference(rhs)
    # the oracle last: its sweep builds the tables of a table-free field
    report = sweep(rhs.expand())
    assert inv.verdict == bool(report.is_permutation and report.is_involution)
    assert perm.ok == report.is_permutation


@PROPERTY_SETTINGS
@given(rhs=rhs_forms(SMALL_FIELDS))
def test_criterion_matches_oracle_and_pointwise_reference(rhs):
    _check_against_references(rhs)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_criterion_matches_references_without_tables(data):
    _check_against_references(data.draw(rhs_forms(table_free_fields())))


@st.composite
def admissible_inputs(draw, fields):
    """(field, s, sigma, r, offsets) that construct_general accepts."""
    field = draw(st.sampled_from(fields))
    q = field.q
    s = draw(st.sampled_from([t for t in range(1, q) if (q - 1) % t == 0]))
    d = (q - 1) // s
    r = draw(st.sampled_from(involutory_exponents(s)))
    order = draw(st.permutations(range(d)))
    mapping = list(range(d))
    for a, b in zip(order[::2], order[1::2]):
        if draw(st.booleans()):
            mapping[a], mapping[b] = b, a
    offsets = [None] * d
    for i in order:
        if mapping[i] == i:
            offsets[i] = draw(st.sampled_from(fixed_point_choices(s, r)))
        elif offsets[i] is None:
            offsets[i] = draw(st.integers(0, s - 1))
            offsets[mapping[i]] = partner_offset(s, r, offsets[i])
    return field, s, SubgroupInvolution(mapping), r, offsets


@PROPERTY_SETTINGS
@given(data=st.data())
def test_subgroup_data_decodes_construct_general(data):
    fields = SMALL_FIELDS + [f for f in table_free_fields() if f.q <= 64]
    field, s, sigma, r, offsets = data.draw(admissible_inputs(fields))
    rhs = construct_general(field, s, sigma, r, offsets)
    assert subgroup_data(rhs) == (sigma.mapping, tuple(offsets))


@PROPERTY_SETTINGS
@given(data=st.data())
def test_construct_value_step_rebuilds_h_from_subgroup_data(data):
    fields = SMALL_FIELDS + [f for f in table_free_fields() if f.q <= 64]
    rhs = data.draw(rhs_forms(fields))
    decoded = subgroup_data(rhs)
    if isinstance(decoded, Element):   # a root of h on mu_d
        assert rhs.h.evaluate(decoded).is_zero
        return
    l, offsets = decoded
    field, d, r = rhs.field, rhs.d, rhs.r
    values = [field.pow_alpha(d * offsets[i] + l[i] - i * r) for i in range(d)]
    assert interpolate_on_subgroup(field, values) == rhs.h


def test_criterion_refuses_subgroups_above_the_cap():
    # d = (2^30 - 1) / 3, about 3.6e8 points of mu_d
    big = make_field(2, 30)
    rhs = RhsForm(big, 1, 3, parse_poly(big, "x + a"))
    assert rhs.d > DEFAULT_CAP
    for check in (check_involution, check_permutation, induced_subgroup_involution):
        with pytest.raises(FieldTooLarge):
            check(rhs)


def test_one_walk_built_per_form_for_both_checks(table_free, monkeypatch):
    # the walk over mu_d is kept on the form: both checks of a form build it
    # once, and a true involution report answers check_permutation without
    # a walk
    built, walks = [], []
    Walk, walk = criterion._Walk, criterion._walk
    monkeypatch.setattr(criterion, "_Walk", lambda *args: built.append(args) or Walk(*args))
    monkeypatch.setattr(criterion, "_walk", lambda rhs: walks.append(rhs) or walk(rhs))
    rng = random.Random(43)
    involutions, decided = 0, []
    for field in SMALL_FIELDS + table_free:
        for _ in range(12):
            drawn = _random_rhs(field, rng)
            rhs = RhsForm(field, 1, drawn.s, drawn.h)   # r = 1 passes the r-condition
            built.clear()
            inv = check_involution(rhs)
            walked = len(walks)
            perm = check_permutation(rhs)
            assert len(built) == 1
            decided.append((rhs, perm.ok))
            if inv.verdict:
                involutions += 1
                assert perm == PermutationCheck(True, True) and len(walks) == walked
    assert involutions
    # the sweeps last: the first over a table-free field builds its tables
    assert all(ok == sweep(rhs.expand()).is_permutation for rhs, ok in decided)


def test_the_criterion_decides_without_the_log_values_evaluator(monkeypatch):
    # the walk and subgroup interpolation read h through point_values alone:
    # on a table-backed field neither builds the whole-field evaluator
    def refuse(self):
        raise AssertionError("log_values called")
    monkeypatch.setattr(SparsePoly, "log_values", refuse)
    rng = random.Random(53)
    for field in SMALL_FIELDS[-3:]:
        assert field.log_table is not None
        for _ in range(6):
            rhs = _random_rhs(field, rng)
            check_involution(rhs)
            check_permutation(rhs)
            decoded = subgroup_data(rhs)
            if not isinstance(decoded, Element):
                l, offsets = decoded
                d, r = rhs.d, rhs.r
                values = [field.pow_alpha(d * offsets[i] + l[i] - i * r) for i in range(d)]
                assert interpolate_on_subgroup(field, values) == rhs.h


def _constructed(field, d, rng, r=None):
    """construct_general over mu_d with a random involution of the indices,
    random admissible offsets and, unless given, a random admissible r."""
    s = (field.q - 1) // d
    r = rng.choice(involutory_exponents(s)) if r is None else r
    order = rng.sample(range(d), d)
    mapping = list(range(d))
    for a, b in zip(order[::2], order[1::2]):
        if rng.random() < 0.6:
            mapping[a], mapping[b] = b, a
    offsets = [None] * d
    for i in order:
        if mapping[i] == i:
            offsets[i] = rng.choice(fixed_point_choices(s, r))
        elif offsets[i] is None:
            offsets[i] = rng.randrange(s)
            offsets[mapping[i]] = partner_offset(s, r, offsets[i])
    return construct_general(field, s, SubgroupInvolution(mapping), r, offsets)


def _confirm_cells(table_free):
    """(field, d, split): composite d where a confirmation fills h's memo by
    one split transform (tables, table-free, and 2^24 above TABLE_LIMIT),
    and prime or short d, where the walk sums h point by point itself."""
    two6, three4, thirteen = table_free
    return [(make_field(2, 8), 85, True), (make_field(3, 4), 80, True),
            (make_field(2, 6), 63, True), (two6, 63, True), (three4, 80, True),
            (make_field(2, 24), 35, True),
            (make_field(2, 8), 17, False), (thirteen, 4, False), (make_field(3, 8), 41, False)]


def test_a_confirmation_fills_the_memo_a_lazy_walk_would(table_free, monkeypatch):
    # confirm_involution fills h's memo from h's coefficients by the
    # transform where it splits, and the walk then reads it: memo, report
    # and verdict are those a lazy walk of the same form leaves
    transforms = []
    subgroup_values = SparsePoly.subgroup_values
    monkeypatch.setattr(SparsePoly, "subgroup_values",
                        lambda h, d: transforms.append(d) or subgroup_values(h, d))
    rng = random.Random(59)
    for field, d, split in _confirm_cells(table_free):
        transforms.clear()
        rhs = _constructed(field, d, rng, r=1 if field.q > 1 << 16 else None)
        assert transforms == ([d] if split else [])
        lazy = RhsForm(field, rhs.r, rhs.s, rhs.h)
        assert check_involution(lazy).verdict
        assert len(rhs._memo["h"]) == d and rhs._memo["h"] == lazy._memo["h"]
        assert rhs._memo["report"] == lazy._memo["report"]


def test_a_confirmation_refuses_a_changed_coefficient(table_free):
    # the transform starts from h's coefficients, not from the values the
    # constructor interpolated: one coefficient changed is refused with the
    # lazy walk's witness, read from values the lazy walk agrees with
    rng = random.Random(61)
    for field, d, _ in _confirm_cells(table_free):
        rhs = _constructed(field, d, rng, r=1 if field.q > 1 << 16 else None)
        k = rng.randrange(d)
        delta = field.element(rng.randrange(1, field.q))
        h = SparsePoly.from_pairs(field, [*((e, c) for e, c in rhs.h.terms.items()), (k, delta)])
        changed = RhsForm(field, rhs.r, rhs.s, h)
        with pytest.raises(InternalMismatch):
            confirm_involution(changed, "changed coefficient")
        lazy = RhsForm(field, rhs.r, rhs.s, h)
        report = check_involution(lazy)
        assert not report.verdict and changed._memo["report"] == report
        assert lazy._memo["h"].items() <= changed._memo["h"].items()


def test_a_decided_form_is_freed_without_the_cycle_collector(table_free):
    # the walk kept on a form sees its shape, not the form, so the form, its
    # memo and its walk go with the last reference to the form, not at the
    # next cycle collection
    rng = random.Random(47)
    gc.disable()
    try:
        for field in (SMALL_FIELDS[-1], table_free[0]):
            rhs = _random_rhs(field, rng)
            check_involution(rhs)
            check_permutation(rhs)
            subgroup_data(rhs)
            gone = weakref.ref(rhs)
            del rhs
            assert gone() is None
    finally:
        gc.enable()
