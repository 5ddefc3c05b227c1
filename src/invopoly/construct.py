"""Building involutions x^r * h(x^s) from involutions of mu_d.

The general recipe: pick an involution i -> l(i) of the exponents of
mu_d = <omega>, an exponent r with r^2 = 1 (mod s), and offsets
n_0..n_{d-1} in Z_s with n_{l(i)} + r * n_i = 0 (mod s); then interpolate

    h(omega^i) = alpha^{d * n_i + l(i) - i * r}

and f = x^r * h(x^s) is an involution.  The n_i pick which coset of mu_d
each coset lands in beyond the bare subgroup map, so the count of valid
offset vectors measures how many involutions share one l.

The closed forms are instances of the recipe, checked by the criterion
alone.  The d = 3 forms are the inversion of mu_3 (over q = 4^k the two
corollaries fix r and part of the offsets; at q = 4 the recipe runs on
mu_1).  The d = 2 form interpolates h from a = h(1) and b = h(-1); the
paper's two value conditions are phi(1) = 1 and phi(-1) = 1.  Tests pin
the paper's explicit coefficient formulas for d = 2 and d = 3.
"""

from __future__ import annotations

from operator import index

from .criterion import SubgroupInvolution, check_involution, confirm_involution, phi_map
from .errors import (
    CharacteristicDividesD,
    EvenCharacteristic,
    NotADivisor,
    PreconditionViolated,
    RSquareCondition,
    WrongFieldShape,
)
from .gf import Field
from .polyring import RhsForm, SparsePoly, bound_subgroup_interpolation, interpolate_on_subgroup


def involutory_exponents(s: int) -> list[int]:
    """All r in [1, s] with r^2 = 1 (mod s); every admissible r is one of
    these modulo s."""
    return [r for r in range(1, s + 1) if (r * r - 1) % s == 0]


def fixed_point_choices(s: int, r: int) -> list[int]:
    """Offsets usable at indices the subgroup involution fixes."""
    return [n for n in range(s) if n * (r + 1) % s == 0]


def partner_offset(s: int, r: int, n_i: int) -> int:
    """The offset forced at l(i) once n_i is chosen at a non-fixed i."""
    return -r * n_i % s


def construct_general(field: Field, s: int, sigma: SubgroupInvolution,
                      r: int = 1, offsets=None) -> RhsForm:
    """Involution x^r * h(x^s) inducing sigma on mu_d; raises on any
    inadmissible input (TypeError on a float s, r or offset) and
    cross-checks its own output."""
    q, s, r = field.q, index(s), index(r)
    if s < 1 or (q - 1) % s:
        raise NotADivisor(f"s = {s} does not divide q-1 = {q - 1}")
    d = (q - 1) // s
    bound_subgroup_interpolation(d)
    if sigma.d != d:
        raise PreconditionViolated(f"subgroup involution has size {sigma.d}, need {d}")
    if (r * r - 1) % s:
        raise RSquareCondition(f"r = {r}: r^2 - 1 not divisible by s = {s}")
    if offsets is None:
        offsets = (0,) * d
    offsets = tuple(index(n) % s for n in offsets)
    if len(offsets) != d:
        raise PreconditionViolated(f"need {d} offsets, got {len(offsets)}")
    bad = [i for i in range(d) if (offsets[sigma(i)] + r * offsets[i]) % s]
    if bad:
        raise PreconditionViolated(
            f"offsets break n_l(i) + r*n_i = 0 (mod {s}) at indices {bad}")
    values = [field.pow_alpha(d * offsets[i] + sigma(i) - i * r) for i in range(d)]
    return confirm_involution(RhsForm(field, r, s, interpolate_on_subgroup(field, values)),
                              "constructed map failed the involution criterion")


def construct_from_inverse(field: Field, s: int, r: int = 1, offsets=None) -> RhsForm:
    """The z -> 1/z special case of construct_general."""
    d = (field.q - 1) // s if s >= 1 and (field.q - 1) % s == 0 else None
    if d is None:
        raise NotADivisor(f"s = {s} does not divide q-1 = {field.q - 1}")
    bound_subgroup_interpolation(d)
    return construct_general(field, s, SubgroupInvolution.inversion(d), r, offsets)


def _written(rhs: RhsForm, r: int) -> SparsePoly:
    """x^r * h(x^s) with r as given: h's terms go to k*s + r, unfolded."""
    return SparsePoly.from_pairs(rhs.field, ((k * rhs.s + r, c) for k, c in rhs.h.terms.items()))


def construct_d2(field: Field, r: int, a, b) -> SparsePoly:
    """The d = 2 form over odd q, s = (q-1)/2: h takes h(1) = a and
    h(-1) = b, so f = (a-b)/2 * x^{s+r} + (a+b)/2 * x^r.  The criterion
    decides; a refusal names the paper's value conditions that failed,
    value-at-a being phi(1) = 1 and value-at-b phi(-1) = 1."""
    if field.p == 2:
        raise EvenCharacteristic("the d = 2 form needs odd q")
    q = field.q
    s = (q - 1) // 2
    if (r * r - 1) % s:
        raise RSquareCondition(f"r = {r}: r^2 - 1 not divisible by s = {s}")
    if r < 1:
        raise PreconditionViolated(f"r must be at least 1, got {r}")
    h = interpolate_on_subgroup(field, [field.element(a), field.element(b)])
    rhs = RhsForm(field, r, s, h)
    report = check_involution(rhs)
    if not report.verdict:
        # the walk visits 1 first: stopping there leaves -1 unvisited
        one = field.one()
        failed = ["value-at-b"] if report.failing_z != one else (
            ["value-at-a"] + (["value-at-b"] if phi_map(rhs, -one) != one else []))
        raise PreconditionViolated(f"d = 2 conditions failed: {', '.join(failed)}")
    return _written(rhs, r)


def construct_d3(field: Field, r: int, n0: int, n1: int, n2: int) -> SparsePoly:
    """The d = 3 form over q = 1 (mod 3): inversion on mu_3 with offsets
    (n0, n1, n2)."""
    q = field.q
    if field.p == 3:
        raise CharacteristicDividesD("d = 3 needs characteristic away from 3")
    if (q - 1) % 3:
        raise NotADivisor(f"3 does not divide q-1 = {q - 1}")
    s = (q - 1) // 3
    if (r * r - 1) % s:
        raise RSquareCondition(f"r = {r}: r^2 - 1 not divisible by s = {s}")
    bad = []
    if n0 * (r + 1) % s:
        bad.append("n0*(r+1)")
    if (n1 * r + n2) % s:
        bad.append("n1*r + n2")
    if bad:
        raise PreconditionViolated(f"d = 3 offset conditions failed: {', '.join(bad)} != 0 mod {s}")
    return _d3_inversion(field, r, (n0, n1, n2))


def _d3_inversion(field: Field, r: int, offsets) -> SparsePoly:
    """Inversion on mu_3 with the given offsets, written out with r as
    given (the exponents r, s + r and 2s + r are left unfolded)."""
    s = (field.q - 1) // 3
    return _written(construct_general(field, s, SubgroupInvolution.inversion(3), r, offsets), r)


def _require_even_square(field: Field) -> None:
    if field.p != 2 or field.n % 2:
        raise WrongFieldShape(f"need q = 4^k, got {field.p}^{field.n}")


def construct_cor_r1(field: Field, n1: int) -> SparsePoly:
    """d = 3, r = 1 over q = 4^k: offsets (0, n1, -n1) collapse to the one
    free parameter beta = alpha^{3*n1 + 1}."""
    _require_even_square(field)
    s = (field.q - 1) // 3
    return _d3_inversion(field, 1, (0, n1, -n1 % s))


def construct_cor_rq43(field: Field, n0: int, n1: int) -> SparsePoly:
    """d = 3, r = (q-4)/3 over q = 4^k: here r + 1 = s, so every offset
    pair (n0, n1) in Z_s x Z_s is admissible, with n2 = n1."""
    _require_even_square(field)
    if field.q > 4:
        return _d3_inversion(field, (field.q - 4) // 3, (n0, n1, n1))
    # q = 4: r = 0 has no index form; x^2 = x^2 * h(x^3) with h = 1 is the
    # recipe on mu_1 with s = 3 and r = 2
    return _written(construct_general(field, 3, SubgroupInvolution.inversion(1), 2), 2)
