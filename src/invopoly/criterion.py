"""Subgroup-level tests for f = x^r * h(x^s) on F_q.

With d = (q - 1) / s and mu_d the d-th roots of unity, f is driven by the
map g(z) = z^r * h(z)^s on mu_d:

  * f permutes F_q        iff  gcd(r, s) = 1 and g permutes mu_d;
  * f is an involution    iff  r^2 = 1 (mod s) and
                               phi(z) = z^{(r^2-1)/s} * h(g(z)) * h(z)^r = 1
                               for every z in mu_d.

A root of h on mu_d kills both properties (the whole coset above it maps
to 0) and shows up here as phi(z) = 0.

This module alone walks mu_d.  Every test here (first_root,
subgroup_data and check_iff_subgroup included) is one walk of an RhsForm,
z = omega^0, omega^1, ..., omega^{d-1} as a running product, stopping at
the first failing z.  The walk is the same on every field: g(z) and
phi(z) are products through the field's mul and pow, table lookups where
the field has log tables (q up to gf.TABLE_LIMIT, and above it once a
whole-field pass built them; a walk never does), and h at one point is
SparsePoly.point_values, which alone picks the lifted sum of the
oracle's evaluator or Horner's rule with the kernel.  check_involution
and check_permutation evaluate h lazily, as refusals fail within a few
points, and at most once per point of mu_d for each form: memoised on the
form by the encoding of z, it is shared by check_involution (which also
needs h(g(z)), again a point of mu_d) and check_permutation, and the walk
itself is built once per form.  confirm_involution, which constructors
call on a form they promise is an involution and so walks all of mu_d,
fills that memo first from one forward transform of h's coefficients
(SparsePoly.subgroup_values) where polyring.subgroup_split says it
splits; the walk then reads the memo.
subgroup_data, and its readers induced_subgroup_involution and
check_iff_subgroup, decode each L_i = log h(omega^i) into

  l(i) = (i*r + L_i) mod d,   n_i = (L_i + i*r - l(i))/d mod s,

the index map and offsets from which construct_general interpolates h,
with g(omega^i) = omega^l(i).  The form also keeps its involution
report, so a constructor's decision is read back, not made again, and a
true one answers check_permutation too.  A decision reads h at most at
the d points of mu_d, never at q: lazily at most d point sums of h's
t terms, and in a confirmation one transform of about d * (d1 + t/d1)
steps for d = d1 * d2.  A walk over d > polyring.DEFAULT_CAP points is
refused with FieldTooLarge before it starts.  g_map and
phi_map are the same maps on single Elements, for callers and tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from .errors import (
    FieldTooLarge,
    HypothesisViolated,
    InternalMismatch,
    NotInSubgroup,
    NotInvolutionOnSubgroup,
    PreconditionViolated,
    RSquareCondition,
)
from .gf import Element, Field
from .polyring import DEFAULT_CAP, RhsForm, subgroup_split


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
    relative to the powers omega^0 .. omega^{d-1} of a fixed generator;
    the entries go through operator.index, so 1.7 is a TypeError."""

    __slots__ = ("d", "mapping")

    def __init__(self, mapping):
        mapping = tuple(map(index, mapping))
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

def _walk(rhs: RhsForm) -> _Walk:
    """The one walk over mu_d behind every subgroup-level test of rhs,
    built once per form and kept on it.  d above DEFAULT_CAP is refused
    (FieldTooLarge) before any point."""
    memo = rhs._memo
    walk = memo["walk"]
    if walk is None:
        d = rhs.d
        if d > DEFAULT_CAP:
            raise FieldTooLarge(f"subgroup walk over d = {d} exceeds cap {DEFAULT_CAP}")
        # the walk sees the form's field, r, s and d, not the form, so that
        # keeping it on the form makes no reference cycle
        walk = memo["walk"] = _Walk(rhs.field, rhs.r, rhs.s, d, memo["h"], rhs.h)
    return walk


def _point(rhs: RhsForm, i: int) -> Element:
    """omega^i = alpha^(s*i), the i-th point of the walk."""
    field = rhs.field
    return Element(field, field.pow(field.alpha.enc, rhs.s * i))


def _decode(rhs: RhsForm | _Walk, i: int, log_h: int) -> tuple[int, ...]:
    """(l(i), n_i) from log_h = log h(omega^i), or () at a root (log_h = -1):
    l(i) = (i*r + log_h) mod d and n_i = (log_h + i*r - l(i))/d mod s, so
    that h(omega^i) = alpha^(d*n_i + l(i) - i*r), as construct_general
    interpolates it, and g(omega^i) = omega^l(i)."""
    if log_h < 0:
        return ()
    d, ir = rhs.d, i * rhs.r
    li = (ir + log_h) % d
    return li, (log_h + ir - li) // d % rhs.s


class _Walk:
    """mu_d on encodings, as the module docstring describes: h(z) by
    h.point_values(), memoised by z, unless a confirmation filled the memo
    by one transform.  A caller that stops at its first failing z
    evaluates h no further."""

    def __init__(self, field: Field, r: int, s: int, d: int, memo: dict, h):
        self.field, self.r, self.s, self.d = field, r, s, d
        value = h.point_values()

        def h_at(z: int) -> int:
            v = memo.get(z)
            if v is None:
                v = memo[z] = value(z)
            return v
        self.h_at = h_at
        self.omega = field.pow(field.alpha.enc, (field.q - 1) // d)

    def points(self):
        """z = omega^0, ..., omega^{d-1} as encodings, one at a time."""
        return self.field.powers(self.omega, self.d)

    def decoded(self):
        """(z, _decode at z) for z = omega^i, i = 0, 1, ..., one at a time;
        log h(z) is a discrete log."""
        field, h_at = self.field, self.h_at
        for i, z in enumerate(self.points()):
            hz = h_at(z)
            yield z, _decode(self, i, field.discrete_log(Element(field, hz)) if hz else -1)

    def first_root(self) -> Element | None:
        h_at = self.h_at
        return next((Element(self.field, z) for z in self.points() if h_at(z) == 0), None)

    def first_phi_failure(self) -> Element | None:
        field, r, s, h_at = self.field, self.r, self.s, self.h_at
        # every base raised to a power here is nonzero (omega, and h(z) past
        # its zero test): the field's _pow, with exponents reduced mod q - 1,
        # skips pow's checks
        qm1 = field.q - 1
        mul, pow_, rq, sq = field.mul, field._pow, r % qm1, s % qm1
        zr = zz = 1   # z^r and z^((r^2-1)/s), running products past z = 1
        for z in self.points():
            hz = h_at(z)
            if hz == 0 or mul(mul(zz, h_at(mul(zr, pow_(hz, sq)))), pow_(hz, rq)) != 1:
                return Element(field, z)
            if z == 1:   # most refusals fail here, before any step is needed
                step_r, step_z = pow_(self.omega, rq), pow_(self.omega, (r * r - 1) // s % qm1)
            zr, zz = mul(zr, step_r), mul(zz, step_z)
        return None

    def first_collision(self):
        field = self.field
        qm1 = field.q - 1
        mul, pow_, sq = field.mul, field._pow, self.s % qm1   # as above
        seen: dict[int, int] = {}
        step, zr, h_at = pow_(self.omega, self.r % qm1), 1, self.h_at
        for z in self.points():
            hz = h_at(z)
            if hz == 0:
                return Element(field, z)
            gz, zr = mul(zr, pow_(hz, sq)), mul(zr, step)
            if gz in seen:
                return Element(field, seen[gz]), Element(field, z)
            seen[gz] = z
        return None


def first_root(rhs: RhsForm) -> Element | None:
    """The first z = omega^i of mu_d with h(z) = 0, as an Element, or None."""
    return _walk(rhs).first_root()


def subgroup_data(rhs: RhsForm) -> tuple[tuple[int, ...], tuple[int, ...]] | Element:
    """(l, offsets) with h(omega^i) = alpha^(d*offsets[i] + l[i] - i*r) at
    every point of mu_d, read back from h: the inverse of construct_general's
    value step, l(i) = (i*r + L_i) mod d and offsets[i] = (L_i + i*r -
    l(i))/d mod s for L_i = log h(omega^i).  The first root of h on mu_d,
    as an Element, when there is one.  Without log tables each L_i is a
    discrete log."""
    pairs = []
    for z, a in _walk(rhs).decoded():
        if not a:
            return Element(rhs.field, z)
        pairs.append(a)
    l, offsets = zip(*pairs)
    return l, offsets


# -- the criteria ------------------------------------------------------------

def check_involution(rhs: RhsForm) -> CriterionReport:
    """Decide whether x^r * h(x^s) is an involution without touching any
    element outside mu_d.  The report is kept with the form, so deciding
    the same form again is a lookup."""
    memo = rhs._memo
    if memo["report"] is None:
        memo["report"] = _decide_involution(rhs)
    return memo["report"]


def _decide_involution(rhs: RhsForm, dense: bool = False) -> CriterionReport:
    r, s = rhs.r, rhs.s
    gcd_ok = gcd(r, s) == 1
    if (r * r - 1) % s:
        return CriterionReport(False, gcd_ok, True, None, False)
    walk = _walk(rhs)
    if dense and subgroup_split(walk.d, len(rhs.h.terms)) > 1:
        memo = rhs._memo["h"]   # filled by one forward transform, unless walked
        if len(memo) < walk.d:
            memo.update(zip(walk.points(), rhs.h.subgroup_values(walk.d)))
    failing = walk.first_phi_failure()
    return CriterionReport(True, gcd_ok, failing is None, failing, failing is None)


def confirm_involution(rhs: RhsForm, message: str) -> RhsForm:
    """rhs, once the criterion confirms the involution a construction
    promised; InternalMismatch(message) if it does not.  A promised
    involution walks all of mu_d, so h's memo is filled first from one
    forward transform of h's coefficients (SparsePoly.subgroup_values,
    which cross-checks the values a constructor interpolated); the walk
    then decides, with its witness, as check_involution does."""
    memo = rhs._memo
    if memo["report"] is None:
        memo["report"] = _decide_involution(rhs, dense=True)
    if not memo["report"].verdict:
        raise InternalMismatch(message)
    return rhs


def check_permutation(rhs: RhsForm) -> PermutationCheck:
    """Decide whether x^r * h(x^s) permutes F_q via g on mu_d.  A kept
    involution report that holds answers without a walk: an involution is
    a bijection."""
    if gcd(rhs.r, rhs.s) != 1:
        return PermutationCheck(False, False)
    report = rhs._memo["report"]
    if report is not None and report.verdict:
        return PermutationCheck(True, True)
    witness = _walk(rhs).first_collision()
    return PermutationCheck(witness is None, True, witness)


def induced_subgroup_involution(rhs: RhsForm) -> SubgroupInvolution:
    """The involution that g = z^r * h(z)^s induces on mu_d.

    Any involution f of this shape forces one: this raises
    NotInvolutionOnSubgroup when g is not an involution of mu_d.  The
    converse direction fails in general, so success here proves nothing
    about f on its own.
    """
    decoded = subgroup_data(rhs)
    if isinstance(decoded, Element):
        raise NotInvolutionOnSubgroup(f"g({decoded}) = 0 leaves the subgroup", witness=decoded)
    mapping = decoded[0]   # g(omega^i) = omega^l(i)
    for i in range(rhs.d):
        if mapping[mapping[i]] != i:
            raise NotInvolutionOnSubgroup(
                f"g o g moves omega^{i} to omega^{mapping[mapping[i]]}", witness=_point(rhs, i))
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
    for i, (z, a) in enumerate(_walk(rhs).decoded()):
        # h(omega^i) = alpha^(d*n_i + l(i) - i*r) lies in mu_d iff s divides that
        if not a or (d * a[1] + a[0] - i * r) % s:
            z = Element(rhs.field, z)
            raise HypothesisViolated(f"h({z}) = {rhs.h.evaluate(z)} is outside mu_{d}", witness=z)
    return check_involution(rhs).verdict
