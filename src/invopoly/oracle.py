"""Exhaustive ground truth for permutation and involution claims.

Everything here evaluates f point by point over F_q and never consults
the subgroup-level machinery, so it can referee it.  On fields of more
than 16 elements, sweep evaluates in encoding order and stops at the
first value that repeats, which is the witness itself; a map that gets
through that prefix is evaluated whole in log order, and a permutation
that is not an involution is decided from those values without a table
in encoding order.  Smaller fields are checked as a full value table.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import isqrt
from operator import getitem
from typing import Sequence

from .errors import NotAPermutation
from .gf import Element, Field
from .polyring import SparsePoly, bound_full_interpolation, interpolate_table

_FIRST_CHUNK = 8      # points in a sweep's first chunk; each later chunk doubles the points done
_PREFIX_ROOTS = 4     # a sweep's encoding-order prefix: 4*sqrt(q) points, at most q/2
_FULL_TABLE_Q = 16    # fields up to this size are swept as one full table, which is faster there


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


def _first_repeat(field: Field, by_enc: list[int], seen: bytearray,
                  lo: int, hi: int) -> PermReport | None:
    """The report of a non-permutation whose first repeat in encoding
    order lies in [lo, hi), or None: by_enc holds f at 0, 1, ... up to hi
    at least, seen marks the values before lo, which are distinct, and
    each value passed is marked."""
    for v in by_enc[lo:hi]:
        if seen[v]:   # v was taken once before; its second x is the repeat
            first = by_enc.index(v)
            return PermReport(field, False, witness=(field.element(first),
                                                     field.element(by_enc.index(v, first + 1))))
        seen[v] = 1
    return None


def _check_table(field: Field, head: list[int], vals: Sequence[int] | None = None,
                 seen: bytearray | None = None) -> PermReport:
    """The report on f from its values: head holds f(0), f(1), ... in
    encoding order, the whole table, or a prefix whose values are distinct
    and marked in seen, with vals = f(alpha^k) for k = 0, ..., q - 2.  One
    pass of f(f(x)) = x settles an involution; a prefix takes it first
    over its first chunk, reading f past the prefix from vals, and only a
    map that gets through is gathered whole.  Past the first offender,
    marking f(0) and every value settles a permutation, and otherwise the
    scan for the first repeat in encoding order, the witness, goes on from
    the end of the prefix (from 0 in a full table)."""
    q, n = field.q, len(head)
    table = head if n == q else None
    if table is None:
        log = field.log_table
        for bad, y in enumerate(head[:_FIRST_CHUNK]):
            if (back := head[y] if y < n else vals[log[y]]) != bad:
                break
        else:
            table = _gather(head[0], vals, log)
    if table is not None:
        fixed = 0
        for bad, y in enumerate(table):
            if table[y] != bad:
                break
            if y == bad:
                fixed += 1
        else:
            return PermReport(field, True, True, fixed)
        back = table[y]
    if seen is None:   # a full table
        n, seen = 0, bytearray(q)
    if not _onto(q, head[0], table if vals is None else vals):
        if table is None:
            table = _gather(head[0], vals, field.log_table)
        return _first_repeat(field, table, seen, n, q)
    return PermReport(field, True, False, witness=(field.element(bad), field.element(back)))


def _gather(f0: int, vals: Sequence[int], log: list[int]) -> list[int]:
    """The table in encoding order from f(0) and the values in log order,
    a list or, past polyring._VALUE_SPAN logs, an array (read by getitem:
    its bound __getitem__ is a slot wrapper, 1.4x as slow at 2^16)."""
    table = list(map(vals.__getitem__, log) if isinstance(vals, list)
                 else map(getitem, repeat(vals), log))
    table[0] = f0
    return table


def _onto(q: int, f0: int, vals: Sequence[int]) -> bool:
    """Whether f(0) and vals take every value below q."""
    marks = bytearray(q)
    marks[f0] = 1
    for v in vals:
        marks[v] = 1
    return 0 not in marks


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

    Above _FULL_TABLE_Q the sweep starts with a prefix in encoding order,
    x = 0, 1, ...: each chunk (_FIRST_CHUNK points, then chunks that double
    the points done) is one call of the SparsePoly.log_values evaluator on
    the logs of its points, read from the field's log table (built by the
    first sweep above TABLE_LIMIT, refused past DEFAULT_CAP:
    Field.alpha_powers).  Each value is marked in a bytearray, and the
    sweep stops at the first value that repeats: that x and the first x of
    its value are the witness.  Any map repeats in encoding order after
    about sqrt(pi*q/2) points if it behaves like a random map (Flajolet
    and Odlyzko, EUROCRYPT 1989), and a map constant on cosets of a small
    subgroup sooner, so the prefix runs to _PREFIX_ROOTS*sqrt(q) points,
    at most q/2.  A map that gets through it is most likely a
    permutation: the evaluator runs once more over the whole field, in
    log order, and _check_table decides from those values, gathering
    them into encoding order only for an involution or a non-permutation.
    Smaller fields are checked as one full value table."""
    field = f.field
    if field.q <= _FULL_TABLE_Q:
        return _check_table(field, f.value_table())
    field.alpha_powers()   # builds the log table above TABLE_LIMIT
    q, log, values = field.q, field.log_table, f.log_values()
    by_enc = [f.coefficient(0).enc]
    seen = bytearray(q)
    seen[by_enc[0]] = 1
    for xs in _chunks(1, min(_PREFIX_ROOTS * isqrt(q), q >> 1)):
        by_enc += values(log[xs.start:xs.stop])
        if (report := _first_repeat(field, by_enc, seen, xs.start, xs.stop)) is not None:
            return report
    return _check_table(field, by_enc, values(range(q - 1)), seen)


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
