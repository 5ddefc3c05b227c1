"""Subgroup-level tests for f = x^r * h(x^s) on F_q.

With d = (q - 1) / s and mu_d the d-th roots of unity, f is driven by the
map g(z) = z^r * h(z)^s on mu_d:

  * f permutes F_q        iff  gcd(r, s) = 1 and g permutes mu_d;
  * f is an involution    iff  r^2 = 1 (mod s) and
                               phi(z) = z^{(r^2-1)/s} * h(g(z)) * h(z)^r = 1
                               for every z in mu_d.

A root of h on mu_d kills both properties (the whole coset above it maps
to 0) and shows up here as phi(z) = 0.

This module alone walks mu_d.  Every test here (first_root and
check_iff_subgroup included) is one walk of an RhsForm, z = omega^0,
omega^1, ..., omega^{d-1}, on integer encodings with the field's kernel
(table lookups for q up to gf.TABLE_LIMIT), in that order, stopping at
the first failing z.  h is evaluated by Horner's rule, lazily and at most
once per point of mu_d for each form: the values are memoised on the
form, so check_involution (which also needs h(g(z)), again a point of
mu_d) and check_permutation share them.  The form also keeps its
involution report, so a constructor's decision is read back, not made
again.  A decision costs at most d evaluations of h, never q, and a walk
over d > polyring.DEFAULT_CAP points is refused with FieldTooLarge
before it starts.  g_map and phi_map are the same maps on single
Elements, for callers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import (
    FieldTooLarge,
    HypothesisViolated,
    InternalMismatch,
    NotInSubgroup,
    NotInvolutionOnSubgroup,
    PreconditionViolated,
    RSquareCondition,
)
from .gf import Element
from .polyring import DEFAULT_CAP, RhsForm


@dataclass(frozen=True)
class CriterionReport:
    """verdict = r_condition and phi_all_one.

    When r_condition already fails, phi is never evaluated: phi_all_one is
    vacuously True and failing_z is None.  gcd_condition is informational
    (it follows from r_condition, since r^2 = 1 + ks forces gcd(r, s) = 1).
    """

    r_condition: bool
    gcd_condition: bool
    phi_all_one: bool
    failing_z: Element | None
    verdict: bool


@dataclass(frozen=True)
class PermutationCheck:
    """witness: a root z of h on mu_d, or a collision pair (z1, z2) of g."""

    ok: bool
    gcd_ok: bool
    witness: Element | tuple[Element, Element] | None = None


class SubgroupInvolution:
    """An involution on mu_d, stored as the index map i -> mapping[i]
    relative to the powers omega^0 .. omega^{d-1} of a fixed generator."""

    __slots__ = ("d", "mapping")

    def __init__(self, mapping):
        mapping = tuple(int(i) for i in mapping)
        d = len(mapping)
        if d < 1 or sorted(mapping) != list(range(d)):
            raise PreconditionViolated(f"{mapping} is not a permutation of 0..{d - 1}")
        for i in range(d):
            if mapping[mapping[i]] != i:
                raise PreconditionViolated(
                    f"index map is not an involution: {i} -> {mapping[i]} -> {mapping[mapping[i]]}")
        self.d = d
        self.mapping = mapping

    @classmethod
    def identity(cls, d: int) -> SubgroupInvolution:
        return cls(range(d))

    @classmethod
    def inversion(cls, d: int) -> SubgroupInvolution:
        """z -> z^{-1}, i.e. i -> (d - i) mod d on exponents."""
        return cls((d - i) % d for i in range(d))

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubgroupInvolution):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self) -> int:
        return hash(self.mapping)

    def __repr__(self) -> str:
        return f"SubgroupInvolution({list(self.mapping)})"


def _require_in_subgroup(rhs: RhsForm, z: Element) -> None:
    if z.is_zero or z ** rhs.d != rhs.field.one():
        raise NotInSubgroup(f"{z} is not a {rhs.d}-th root of unity", witness=z)


def g_map(rhs: RhsForm, z: Element) -> Element:
    """g(z) = z^r * h(z)^s; zero exactly when h(z) = 0."""
    _require_in_subgroup(rhs, z)
    return z**rhs.r * rhs.h.evaluate(z) ** rhs.s


def phi_map(rhs: RhsForm, z: Element) -> Element:
    """phi(z) = z^{(r^2-1)/s} * h(g(z)) * h(z)^r; needs r^2 = 1 (mod s)."""
    r, s = rhs.r, rhs.s
    if (r * r - 1) % s:
        raise RSquareCondition(f"r^2 - 1 = {r * r - 1} is not divisible by s = {s}")
    _require_in_subgroup(rhs, z)
    hz = rhs.h.evaluate(z)
    gz = z**r * hz**s
    return z ** ((r * r - 1) // s) * rhs.h.evaluate(gz) * hz**r


# -- the walk over mu_d ------------------------------------------------------

def _walk(rhs: RhsForm):
    """The one walk over mu_d behind every subgroup-level test of rhs.

    Returns (h_at, points, omega): h_at evaluates h at an encoding; points
    yields the encodings (z, h(z)) for z = omega^0, ..., omega^{d-1}, one at
    a time, so a caller that stops at its first failing z evaluates h no
    further (and keeps any z^e as a running product of omega^e).  h_at looks
    each point up in the form's memo first and stores what it computes
    there.  d above DEFAULT_CAP is refused (FieldTooLarge) before any point.
    """
    field, d, h, memo = rhs.field, rhs.d, rhs.h, rhs._memo["h"]
    if d > DEFAULT_CAP:
        raise FieldTooLarge(f"subgroup walk over d = {d} exceeds cap {DEFAULT_CAP}")
    add, mul, pow_ = field.add, field.mul, field.pow
    # Horner's rule over the exponents e_1 > ... > e_m of h:
    # h(z) = ((c_1 z^{e_1-e_2} + c_2) z^{e_2-e_3} + ... + c_m) z^{e_m}
    exps = sorted(h.terms, reverse=True) or [0]
    steps = [(h.terms[e].enc, e - nxt) for e, nxt in zip(exps, exps[1:])]
    last, low = h.coefficient(exps[-1]).enc, exps[-1]

    def h_at(z: int) -> int:
        v = memo.get(z)
        if v is None:
            v = 0
            for c, gap in steps:
                v = mul(add(v, c), z if gap == 1 else pow_(z, gap))
            v = add(v, last)
            if low:
                v = mul(v, pow_(z, low))
            memo[z] = v
        return v

    omega = pow_(field.alpha.enc, (field.q - 1) // d)
    return h_at, ((z, h_at(z)) for z in field.powers(omega, d)), omega


def first_root(rhs: RhsForm) -> Element | None:
    """The first z = omega^i of mu_d with h(z) = 0, as an Element, or None."""
    for z, hz in _walk(rhs)[1]:
        if hz == 0:
            return Element(rhs.field, z)
    return None


# -- the criteria ------------------------------------------------------------

def check_involution(rhs: RhsForm) -> CriterionReport:
    """Decide whether x^r * h(x^s) is an involution without touching any
    element outside mu_d.  The report is kept with the form, so deciding
    the same form again is a lookup."""
    memo = rhs._memo
    if memo["report"] is None:
        memo["report"] = _decide_involution(rhs)
    return memo["report"]


def _decide_involution(rhs: RhsForm) -> CriterionReport:
    r, s = rhs.r, rhs.s
    gcd_ok = gcd(r, s) == 1
    if (r * r - 1) % s:
        return CriterionReport(False, gcd_ok, True, None, False)
    field = rhs.field
    mul, pow_ = field.mul, field.pow
    h_at, points, omega = _walk(rhs)
    zr = zz = 1   # z^r and z^((r^2-1)/s), running products past z = 1
    for z, hz in points:
        if hz == 0 or mul(mul(zz, h_at(mul(zr, pow_(hz, s)))), pow_(hz, r)) != 1:
            return CriterionReport(True, gcd_ok, False, Element(field, z), False)
        if z == 1:   # most refusals fail here, before any step is needed
            step_r, step_z = pow_(omega, r), pow_(omega, (r * r - 1) // s)
        zr, zz = mul(zr, step_r), mul(zz, step_z)
    return CriterionReport(True, gcd_ok, True, None, True)


def confirm_involution(rhs: RhsForm, message: str) -> RhsForm:
    """rhs, once the criterion confirms the involution a construction
    promised; InternalMismatch(message) if it does not."""
    if not check_involution(rhs).verdict:
        raise InternalMismatch(message)
    return rhs


def check_permutation(rhs: RhsForm) -> PermutationCheck:
    """Decide whether x^r * h(x^s) permutes F_q via g on mu_d."""
    gcd_ok = gcd(rhs.r, rhs.s) == 1
    if not gcd_ok:
        return PermutationCheck(False, False)
    field = rhs.field
    mul, pow_ = field.mul, field.pow
    r, s = rhs.r, rhs.s
    seen: dict[int, int] = {}
    _, points, omega = _walk(rhs)
    step, zr = pow_(omega, r), 1
    for z, hz in points:
        if hz == 0:
            return PermutationCheck(False, True, witness=Element(field, z))
        gz, zr = mul(zr, pow_(hz, s)), mul(zr, step)
        if gz in seen:
            return PermutationCheck(False, True,
                                    witness=(Element(field, seen[gz]), Element(field, z)))
        seen[gz] = z
    return PermutationCheck(True, True)


def induced_subgroup_involution(rhs: RhsForm) -> SubgroupInvolution:
    """The involution that g = z^r * h(z)^s induces on mu_d.

    Any involution f of this shape forces one: this raises
    NotInvolutionOnSubgroup when g is not an involution of mu_d.  The
    converse direction fails in general, so success here proves nothing
    about f on its own.
    """
    field = rhs.field
    mul, pow_ = field.mul, field.pow
    r, s = rhs.r, rhs.s
    index: dict[int, int] = {}   # z = omega^i -> i
    images = []
    for i, (z, hz) in enumerate(_walk(rhs)[1]):
        if hz == 0:
            raise NotInvolutionOnSubgroup(
                f"g({Element(field, z)}) = 0 leaves the subgroup", witness=Element(field, z))
        index[z] = i
        images.append(mul(pow_(z, r), pow_(hz, s)))
    mapping = [index[g] for g in images]
    for i in range(rhs.d):
        if mapping[mapping[i]] != i:
            omega = field.pow(field.alpha.enc, (field.q - 1) // rhs.d)
            raise NotInvolutionOnSubgroup(
                f"g o g moves omega^{i} to omega^{mapping[mapping[i]]}",
                witness=Element(field, field.pow(omega, i)))
    return SubgroupInvolution(mapping)


def check_iff_subgroup(rhs: RhsForm) -> bool:
    """When gcd(s, d) = 1 and h maps mu_d into itself, f is an involution
    exactly when g = z^r * h(z)^s is one on mu_d; this checks those
    hypotheses and reads the answer off the criterion, d evaluations."""
    r, s, d = rhs.r, rhs.s, rhs.d
    if (r * r - 1) % s:
        raise HypothesisViolated(f"r^2 = 1 mod s fails for r = {r}, s = {s}")
    if gcd(s, d) != 1:
        raise HypothesisViolated(f"gcd(s, d) = {gcd(s, d)} must be 1")
    field = rhs.field
    for z, v in _walk(rhs)[1]:
        if v == 0 or field.pow(v, d) != 1:
            raise HypothesisViolated(
                f"h({Element(field, z)}) = {Element(field, v)} is outside mu_{d}",
                witness=Element(field, z))
    return check_involution(rhs).verdict
