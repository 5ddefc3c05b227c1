"""Exhaustive ground truth for permutation and involution claims.

Everything here evaluates f point by point over F_q and never consults
the subgroup-level machinery, so it can referee it.  sweep stops at the
first repeated value on fields with log tables and more than 128
elements; a permutation, and every other sweep, is checked as a full
value table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAPermutation
from .gf import Element, Field
from .polyring import SparsePoly, bound_full_interpolation, interpolate_table

_FIRST_CHUNK = 32     # points in a sweep's first chunk; each later chunk doubles the points done
_FULL_TABLE_Q = 128   # fields up to this size are swept as one full table


@dataclass(frozen=True)
class PermReport:
    """Outcome of a sweep: over the whole field for a permutation, up to
    its first repeated value for a non-permutation.

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
    first_preimage = [-1] * field.q
    for x, y in enumerate(table):
        if first_preimage[y] >= 0:
            return PermReport(field, False,
                             witness=(field.element(first_preimage[y]), field.element(x)))
        first_preimage[y] = x
    return _check_involution(field, table)


def _check_involution(field: Field, table: list[int]) -> PermReport:
    """The report on a permutation's value table."""
    fixed = 0
    bad = -1
    for x, y in enumerate(table):
        if table[y] != x:
            bad = x
            break
        if y == x:
            fixed += 1
    if bad >= 0:
        return PermReport(field, True, False,
                         witness=(field.element(bad), field.element(table[table[bad]])))
    return PermReport(field, True, True, fixed)


def _chunks(start: int, stop: int):
    """range(start, stop) cut into ranges: _FIRST_CHUNK long, then each as
    long as all before it, so a scan that stops in a chunk has done at
    most twice the points it needed."""
    lo = start
    while lo < stop:
        hi = min(stop, lo + max(lo - start, _FIRST_CHUNK))
        yield range(lo, hi)
        lo = hi


def sweep(f: SparsePoly) -> PermReport:
    """Evaluate f at as many points as it takes, and report permutation /
    involution status.

    On fields with log tables (q up to TABLE_LIMIT) above _FULL_TABLE_Q
    the values come in log order, x = alpha^k, from SparsePoly.log_values
    over ranges of k: _FIRST_CHUNK points, then chunks that double the
    points done.  Each value is marked (in a bytearray, and from q/8
    points on in a list, which the interpreter indexes faster), and the
    sweep stops at the first value that repeats.  A random map repeats
    after about sqrt(pi*q/2) points, so most non-permutations stop long
    before q; _first_collision then finds the witness.  A permutation's
    chunks fold into its value table, which is checked for an involution
    and counted for fixed points.  Smaller fields and fields above
    TABLE_LIMIT are checked as one full value table, which
    polyring.DEFAULT_CAP bounds (FieldTooLarge)."""
    field = f.field
    q, log = field.q, field.log_table
    if log is None or q <= _FULL_TABLE_Q:
        return _check_table(field, f.value_table())
    at_zero = f.coefficient(0).enc
    seen = bytearray(q)
    seen[at_zero] = 1
    values, vals = f.log_values(), []
    for ks in _chunks(0, q - 1):
        if ks.start >= q >> 3 and isinstance(seen, bytearray):
            seen = list(seen)
        chunk = values(ks)
        vals += chunk
        for v in chunk:
            if seen[v]:
                return _first_collision(field, values, vals, at_zero)
            seen[v] = 1
    table = list(map(vals.__getitem__, log))
    table[0] = at_zero
    return _check_involution(field, table)


def _first_collision(field: Field, values, vals: list[int], at_zero: int) -> PermReport:
    """The report of a non-permutation with the witness _check_table gives:
    the first repeat in encoding order, x = 0, 1, ..., paired with the
    first x of its value.  vals holds f(alpha^k) for k < len(vals) from
    the log-order sweep; the other points are evaluated in chunks of x,
    one log_values call over their logs per chunk."""
    log, done = field.log_table, len(vals)
    by_enc, seen = [at_zero], bytearray(field.q)
    seen[at_zero] = 1
    for xs in _chunks(1, field.q):
        logs = log[xs.start:xs.stop]
        fresh = iter(values([k for k in logs if k >= done]))
        by_enc += [vals[k] if k < done else next(fresh) for k in logs]
        for x in xs:
            v = by_enc[x]
            if seen[v]:
                return PermReport(field, False,
                                  witness=(field.element(by_enc.index(v)), field.element(x)))
            seen[v] = 1
    raise AssertionError("unreachable: the log-order sweep found a repeat")  # pragma: no cover


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
