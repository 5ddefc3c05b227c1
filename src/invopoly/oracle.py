"""Exhaustive ground truth for permutation and involution claims.

Everything here works from a full value table and never consults the
subgroup-level machinery, so it can referee it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAPermutation
from .gf import Element, Field
from .polyring import SparsePoly, bound_full_interpolation, interpolate_table


@dataclass(frozen=True)
class PermReport:
    """Outcome of an exhaustive sweep over the whole field.

    is_involution is None when the map is not even a permutation; witness
    is the first offender in encoding order: a collision pair (x, y) with
    f(x) = f(y) for a non-permutation, or (x, f(f(x))) for a permutation
    that is not an involution.
    """

    field: Field
    is_permutation: bool
    is_involution: bool | None = None
    fixed_point_count: int | None = None
    witness: tuple[Element, Element] | None = None


def _check_table(field: Field, table: list[int]) -> PermReport:
    q = field.q
    first_preimage = [-1] * q
    for x in range(q):
        y = table[x]
        if first_preimage[y] >= 0:
            return PermReport(field, False,
                             witness=(field.element(first_preimage[y]), field.element(x)))
        first_preimage[y] = x
    fixed = 0
    bad = -1
    for x in range(q):
        if table[table[x]] != x:
            bad = x
            break
        if table[x] == x:
            fixed += 1
    if bad >= 0:
        return PermReport(field, True, False,
                         witness=(field.element(bad), field.element(table[table[bad]])))
    return PermReport(field, True, True, fixed)


def sweep(f: SparsePoly) -> PermReport:
    """Evaluate f everywhere and report permutation / involution status;
    above polyring.DEFAULT_CAP the value table refuses (FieldTooLarge)."""
    return _check_table(f.field, f.value_table())


def compositional_inverse(f: SparsePoly) -> SparsePoly:
    """The reduced polynomial inducing f^{-1}; NotAPermutation otherwise."""
    bound_full_interpolation(f.field.q)
    table = f.value_table()
    report = _check_table(f.field, table)
    if not report.is_permutation:
        raise NotAPermutation(f"no inverse: f collides at encodings "
                              f"{report.witness[0].enc} and {report.witness[1].enc}",
                              witness=report.witness)
    inv = [0] * len(table)
    for x, y in enumerate(table):
        inv[y] = x
    return interpolate_table(f.field, inv)
