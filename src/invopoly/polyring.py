"""Sparse polynomials over a finite field and the x^r * h(x^s) shape.

A SparsePoly is a map exponent -> nonzero coefficient.  Two polynomials
induce the same function on F_q whenever their exponents agree under the
reduction e -> ((e - 1) mod (q - 1)) + 1 (exponent 0 is kept as is, so
the constant term stays a constant term and x^0 = 1 everywhere).

RhsForm captures f = x^r * h(x^s) with s a divisor of q - 1 and h reduced
modulo x^d - 1 for d = (q - 1) / s.  decompose() extracts the shape from a
plain polynomial, expand() goes back.

On mu_d = <omega>, omega = alpha^((q-1)/d), this module alone decides
between log tables and the field kernel: point_values() is h at one
point (the criterion's lazy walk), subgroup_values(d) h at all d points,
the forward discrete Fourier transform that interpolate_on_subgroup reads
backwards.  The transform splits d = d1 * d2 (Cooley and Tukey, Math.
Comp. 19, 1965; Pollard, Math. Comp. 25, 1971), and every sum in it is
point_values' point sum.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt
from operator import index, itemgetter

from . import gf
from .errors import (
    FieldTooLarge,
    HasConstantTerm,
    NotADivisor,
    ParseError,
    PreconditionViolated,
    ZeroPolynomial,
)
from .gf import Element, Field

COMPOSE_LIMIT = 1 << 11       # full-field interpolation is quadratic in q
DEFAULT_CAP = gf.DEFAULT_CAP  # read here by criterion, families and cli
_VALUE_SPAN = 1 << 14         # logs log_values sums at a time, which bounds its peak memory
_SUM_TERMS = 20               # one point sum's own cost, in terms it sums (measured)


def reduce_exponent(e: int, q: int) -> int:
    """Canonical exponent mod the function identity x^q = x: positive
    exponents fold into [1, q-1], zero stays zero."""
    if e == 0:
        return 0
    return (e - 1) % (q - 1) + 1


def _lifted_at(field: Field, steps, lifted):
    """z -> f(z) for nonzero encodings z, the one point-by-point lifted sum:
    of lift[log c + e*log z] (mod q - 1) over steps (log c, e), by + (XOR
    in characteristic 2), reduced once; lifted is what Field.lifted gave."""
    lift, _, reduce = lifted
    qm1, xor, log = field.q - 1, field.p == 2, field.log_table

    def at(z: int) -> int:
        k, v = log[z], 0
        if xor:
            for lc, e in steps:
                v ^= lift[(lc + e * k) % qm1]
            return v
        for lc, e in steps:
            v += lift[(lc + e * k) % qm1]
        return reduce(v)
    return at


def _point_sum(field: Field, pairs):
    """z -> sum of c * z^e over (c, e) pairs of nonzero encodings c and
    distinct exponents e, for nonzero encodings z, building no tables: the
    lifted sum of _lifted_at where the field has log tables (over the exp
    table as it is, no compact copy), otherwise Horner's rule with the
    kernel over e_1 > ... > e_m,
    ((c_1 z^{e_1-e_2} + c_2) z^{e_2-e_3} + ... + c_m) z^{e_m}."""
    log = field.log_table
    if log is not None:
        steps = [(log[c], e) for c, e in pairs]
        return _lifted_at(field, steps, field.lifted(len(steps), compact=False))
    add, mul, pow_ = field.add, field.mul, field.pow
    pairs = sorted(pairs, key=itemgetter(1), reverse=True) or [(0, 0)]
    steps = [(c, e - nxt) for (c, e), (_, nxt) in zip(pairs, pairs[1:])]
    last, low = pairs[-1]

    def horner(z: int) -> int:
        v = 0
        for c, gap in steps:
            v = mul(add(v, c), z if gap == 1 else pow_(z, gap))
        v = add(v, last)
        return mul(v, pow_(z, low)) if low else v
    return horner


def subgroup_split(d: int, terms: int) -> int:
    """The factor d1 of d at which SparsePoly.subgroup_values splits its
    transform of a `terms`-term polynomial on mu_d (the largest divisor
    d1 <= sqrt(d)), or 1 where it sums point by point: a split costs about
    d1 + terms/d1 per point plus one more point sum (_SUM_TERMS), against
    `terms`.  Prime d, short d and sparse polynomials stay point by point."""
    if terms <= _SUM_TERMS:   # no split is cheaper: skip the divisor search
        return 1
    d1 = next(k for k in range(isqrt(d), 0, -1) if d % k == 0)
    return d1 if terms - terms // d1 > d1 + _SUM_TERMS else 1


def _subgroup_points(field: Field, d: int) -> list[int]:
    """omega^0, ..., omega^(d-1) for omega = alpha^((q-1)/d), the points
    of mu_d in the criterion's walk order."""
    return list(field.powers(field.pow(field.alpha.enc, (field.q - 1) // d), d))


def _subgroup_sums(field: Field, pairs, points: list[int]) -> list[int]:
    """The sums of c * z^e over the (c, e) pairs (every e < d) at the points
    omega^0, ..., omega^(d-1) of mu_d.  Split at d1 (subgroup_split), the
    d1 runs of exponents e = j (mod d1), polynomials in x^d1, are
    transformed on mu_d2 = points[::d1], and output i is the d1-term sum
    over j of run j's value at i mod d2 times (omega^i)^j.  Every sum,
    direct or combining, is _point_sum."""
    d = len(points)
    d1 = subgroup_split(d, len(pairs))
    if d1 == 1:
        return list(map(_point_sum(field, pairs), points))
    d2, runs, sub = d // d1, [[] for _ in range(d1)], points[::d1]
    for c, e in pairs:
        runs[e % d1].append((c, e // d1))
    cols = [(j, _subgroup_sums(field, run, sub)) for j, run in enumerate(runs) if run]
    out = [0] * d
    for i in range(d2):
        at = _point_sum(field, [(col[i], j) for j, col in cols if col[i]])
        out[i::d2] = map(at, points[i::d2])
    return out


class SparsePoly:
    """Polynomial with few terms, stored exponent -> coefficient."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: dict[int, Element]):
        if terms and min(terms) < 0:
            raise ValueError(f"negative exponent {min(terms)}")
        self.field = field
        self.terms = {index(e): c for e, c in terms.items() if c.enc}   # no float exponents

    @classmethod
    def from_pairs(cls, field: Field, pairs) -> SparsePoly:
        """Build from (exponent, coefficient) pairs, merging duplicates."""
        acc: dict[int, Element] = {}
        for e, c in pairs:
            if e in acc:
                acc[e] = acc[e] + c
            else:
                acc[e] = c
        return cls(field, acc)

    @classmethod
    def _wrap(cls, field: Field, terms: dict[int, Element]) -> SparsePoly:
        """Wrap terms that already have distinct nonnegative int exponents
        and nonzero coefficients, as __init__ would leave them."""
        poly = cls.__new__(cls)
        poly.field, poly.terms = field, terms
        return poly

    @classmethod
    def zero(cls, field: Field) -> SparsePoly:
        return cls(field, {})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest exponent, or -1 for the zero polynomial."""
        return max(self.terms) if self.terms else -1

    def coefficient(self, e: int) -> Element:
        return self.terms.get(e, self.field.zero())

    def evaluate(self, x: Element) -> Element:
        acc = self.field.zero()
        for e, c in self.terms.items():
            acc = acc + c * x**e
        return acc

    def reduce_exponents(self) -> SparsePoly:
        """Fold exponents by x^q = x; the induced function is unchanged."""
        q = self.field.q
        return SparsePoly.from_pairs(
            self.field, ((reduce_exponent(e, q), c) for e, c in self.terms.items()))

    def point_values(self):
        """z -> f(z) on nonzero encodings, building no tables: _point_sum
        over f's terms (with log tables, the steps of _lifted_at straight
        from f's terms, one pass fewer)."""
        f, terms = self.field, self.terms
        log = f.log_table
        if log is None:
            return _point_sum(f, [(c.enc, e) for e, c in terms.items()])
        steps = [(log[c.enc], e) for e, c in terms.items()]
        return _lifted_at(f, steps, f.lifted(len(steps), compact=False))

    def subgroup_values(self, d: int) -> list[int]:
        """Encodings of f(omega^0), ..., f(omega^(d-1)) for omega =
        alpha^((q-1)/d), the forward transform of f on mu_d (exponents
        taken mod d), by _subgroup_sums; NotADivisor unless d | q - 1."""
        field = self.field
        if d < 1 or (field.q - 1) % d:
            raise NotADivisor(f"{d} does not divide q-1 = {field.q - 1}")
        f = self if self.degree() < d else SparsePoly.from_pairs(
            field, ((e % d, c) for e, c in self.terms.items()))
        return _subgroup_sums(field, [(c.enc, e) for e, c in f.terms.items()],
                              _subgroup_points(field, d))

    def log_values(self):
        """The evaluator ks -> encodings of f(alpha^k) for each k of ks, for
        consecutive logs as a range or any logs as a list.  A call of fewer
        logs than f has terms (a dense form in oracle.sweep's first chunks)
        maps _lifted_at's point-by-point sum over alpha^k; a longer one
        makes each term one pass over ks, whose logs are a range over a
        range and computed in place over a list (the sweep's prefix).  Up
        to _VALUE_SPAN logs the values come as a list; past that, on a
        field of more than _VALUE_SPAN elements, span by span into one
        array('I'), so a whole-field pass holds at most a span of sums as
        Python ints and its values at 4 bytes each."""
        f = self.field
        exp = f.alpha_powers()   # first: above TABLE_LIMIT it builds the log table
        qm1, xor, log = f.q - 1, f.p == 2, f.log_table
        steps = [(log[c.enc], e) for e, c in self.terms.items()]
        lift, reduce_sums, _ = lifted = f.lifted(len(steps))
        at = _lifted_at(f, steps, lifted)

        def values(ks) -> list[int]:
            if len(ks) < len(steps) or not steps:   # short, or f = 0: point by point
                return [at(exp[k % qm1]) for k in ks]
            consecutive, sums = isinstance(ks, range), None
            for lc, e in steps:
                if consecutive:
                    idx = (range(lc + e * ks.start, lc + e * ks.stop, e * ks.step) if e
                           else [lc] * len(ks))
                    if sums is None:
                        sums = [lift[k % qm1] for k in idx]
                    elif xor:
                        sums = [s ^ lift[k % qm1] for s, k in zip(sums, idx)]
                    else:
                        sums = [s + lift[k % qm1] for s, k in zip(sums, idx)]
                elif sums is None:   # any logs: those looked up are computed in place
                    sums = [lift[(lc + e * k) % qm1] for k in ks]
                elif xor:
                    sums = [s ^ lift[(lc + e * k) % qm1] for s, k in zip(sums, ks)]
                else:
                    sums = [s + lift[(lc + e * k) % qm1] for s, k in zip(sums, ks)]
            return reduce_sums(sums)
        if qm1 <= _VALUE_SPAN:   # a smaller field's whole pass fits in one span
            return values

        def in_spans(ks):
            if len(ks) <= _VALUE_SPAN:
                return values(ks)
            out = array("I")
            for lo in range(0, len(ks), _VALUE_SPAN):
                out.fromlist(values(ks[lo:lo + _VALUE_SPAN]))
            return out
        return in_spans

    def value_table(self) -> list[int]:
        """Encodings of f(x) for every x, indexed by the encoding of x.

        One call of the log_values evaluator over k = 0, ..., q - 2 (a
        compact array past _VALUE_SPAN logs), each value scattered to
        x = alpha^k along the field's kept walk of alpha's powers
        (Field.alpha_powers); oracle.sweep makes the same log-order call
        over the whole field for a map that gets through its
        encoding-order prefix."""
        f = self.field
        q = f.q
        exp = f.alpha_powers()   # first, for its DEFAULT_CAP refusal
        values, out = self.log_values(), [0] * q
        for x, v in zip(exp, values(range(q - 1))):
            out[x] = v
        out[0] = self.coefficient(0).enc
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.field, frozenset((e, c.enc) for e, c in self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            if e == 0:
                parts.append(str(c))
                continue
            xpart = "x" if e == 1 else f"x^{e}"
            if c == self.field.one():
                parts.append(xpart)
            else:
                parts.append(f"{c}*{xpart}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<poly {self} over {self.field!r}>"


@dataclass(frozen=True)
class RhsForm:
    """f = x^r * h(x^s) with s | q - 1; h is reduced mod x^d - 1, d = (q-1)/s.

    r is normalised into [1, q-1].  Both normalisations preserve the induced
    map on F_q, and because any replacement r -> r + k(q-1) keeps r mod s and
    shifts the subgroup exponent (r^2 - 1)/s by a multiple of d, they also
    leave every subgroup-level test unchanged.
    """

    field: Field
    r: int
    s: int
    h: SparsePoly

    def __post_init__(self):
        q = self.field.q
        if self.s < 1 or (q - 1) % self.s:
            raise NotADivisor(f"s = {self.s} does not divide q-1 = {q - 1}")
        if self.r < 1:
            raise PreconditionViolated(f"r must be at least 1, got {self.r}")
        if self.h.field != self.field:
            raise ValueError("h lives in a different field")
        object.__setattr__(self, "r", reduce_exponent(self.r, q))
        d = (q - 1) // self.s
        if any(e >= d for e in self.h.terms):
            folded = SparsePoly.from_pairs(
                self.field, ((e % d, c) for e, c in self.h.terms.items()))
            object.__setattr__(self, "h", folded)

    @property
    def d(self) -> int:
        return (self.field.q - 1) // self.s

    @cached_property
    def _memo(self) -> dict:
        """What the criterion has learnt about this form, shared by every
        subgroup-level check of it: under "h", h(z) by the encoding of z
        for each point z of mu_d walked so far; under "walk", the walk over
        mu_d once built; under "report", the involution report once
        decided."""
        return {"h": {}, "walk": None, "report": None}

    def expand(self) -> SparsePoly:
        """The plain polynomial x^r * h(x^s) with exponents folded into
        [1, q-1].  Distinct h exponents mod d stay distinct here: r + s*e
        for 0 <= e < d spans less than q - 1, so the terms need no merging."""
        qm1, r, s = self.field.q - 1, self.r, self.s
        return SparsePoly._wrap(
            self.field, {(r + s * e - 1) % qm1 + 1: c for e, c in self.h.terms.items()})

    def __str__(self) -> str:
        return f"x^{self.r} * h(x^{self.s}) with h = {self.h}"


def decompose(f: SparsePoly, s: int | None = None) -> RhsForm:
    """Write f as x^r * h(x^s) with r the least exponent and, by default,
    the largest s compatible with the exponent spacing.

    A nonzero constant term blocks the shape (HasConstantTerm); an explicit
    s must divide the generic one (NotADivisor).
    """
    f = f.reduce_exponents()   # x - x^q, say, folds to the zero polynomial
    if f.is_zero:
        raise ZeroPolynomial("cannot decompose the zero polynomial")
    if 0 in f.terms:
        raise HasConstantTerm("polynomial has a constant term; x^r * h(x^s) needs r >= 1")
    q = f.field.q
    r = min(f.terms)
    g0 = 0
    for e in f.terms:
        g0 = gcd(g0, e - r)
    g0 = gcd(g0, q - 1)
    if s is None:
        s = g0
    elif s < 1 or g0 % s:
        raise NotADivisor(f"s = {s} does not divide the exponent gcd {g0}")
    h = SparsePoly.from_pairs(
        f.field, (((e - r) // s, c) for e, c in f.terms.items()))
    return RhsForm(f.field, r, s, h)


def bound_subgroup_interpolation(d: int) -> None:
    """Refuse interpolation on more than COMPOSE_LIMIT roots of unity.  The
    bound dates from a transform quadratic in d; the split one costs about
    d * (d1 + d/d1) for d = d1 * d2 (d^2 still at prime d)."""
    if d > COMPOSE_LIMIT:
        raise FieldTooLarge(f"subgroup interpolation over d = {d} exceeds {COMPOSE_LIMIT}")


def bound_full_interpolation(q: int) -> None:
    """Refuse interpolation over all of F_q beyond COMPOSE_LIMIT, before any
    q-entry value table is built."""
    if q > COMPOSE_LIMIT:
        raise FieldTooLarge(f"full-field interpolation over q = {q} refused")


def interpolate_on_subgroup(field: Field, values: list[Element]) -> SparsePoly:
    """The unique h of degree < d with h(omega^i) = values[i] on the d-th
    roots of unity, by the inverse discrete Fourier transform
    h_k = sum_i (values[i] / d) * omega^{-ik} = V(omega^{d-k}) / d for
    V = sum_i values[i] * y^i: the forward transform of V on mu_d (as
    V.subgroup_values(d) makes it) read backwards."""
    d = len(values)
    if d < 1 or (field.q - 1) % d:
        raise NotADivisor(f"{d} does not divide q-1 = {field.q - 1}")
    bound_subgroup_interpolation(d)
    if any(v.field != field for v in values):
        raise ValueError("elements belong to different fields")
    dinv, mul = field.pow(d % field.p, -1), field.mul
    pairs = [(v.enc, i) for i, v in enumerate(values) if v.enc]   # V's terms
    at = _subgroup_sums(field, pairs, _subgroup_points(field, d))   # at[-k] = V(omega^(d-k))
    return SparsePoly._wrap(
        field, {k: Element(field, mul(at[-k], dinv)) for k in range(d) if at[-k]})


def interpolate_table(field: Field, table: list[int]) -> SparsePoly:
    """The unique polynomial of degree < q matching a full value table
    (encodings indexed by encoding).

    Closed form from delta functions 1 - (x - c)^{q-1}: the constant term
    is t_0 and, for k >= 1, the x^k coefficient is
    -(sum over c != 0 of t_c * c^{-k}), with t_0 joining the k = q-1 sum.
    The sums over c = alpha^i are the subgroup transform on mu_{q-1},
    whose d^{-1} = (q-1)^{-1} is -1: they are the coefficients h_k of
    interpolate_on_subgroup, with h_0 serving k = q-1.
    """
    q = field.q
    bound_full_interpolation(q)
    if len(table) != q:
        raise ValueError(f"table must have {q} entries, got {len(table)}")
    t = [field.element(v) for v in table]
    h = interpolate_on_subgroup(field, [t[x] for x in field.alpha_powers()])
    pairs = [(0, t[0])] + [(k, c) for k, c in h.terms.items() if k]
    pairs.append((q - 1, h.coefficient(0) - t[0]))
    return SparsePoly.from_pairs(field, pairs)


def compose_reduce(f: SparsePoly, g: SparsePoly) -> SparsePoly:
    """The reduced polynomial inducing x -> f(g(x)), by value table plus
    full-field interpolation."""
    if f.field != g.field:
        raise ValueError("polynomials live in different fields")
    bound_full_interpolation(f.field.q)
    gt = g.value_table()
    ft = f.value_table()
    return interpolate_table(f.field, [ft[v] for v in gt])


_SIGN_RE = re.compile(r"(?<!\^)([+-])")   # a sign right after ^ belongs to an exponent
_TERM_RE = re.compile(r"^(?:(?P<coef>[^*]+?)\s*\*?\s*)?x(?:\^(?P<exp>\d+))?$")


def parse_poly(field: Field, text: str) -> SparsePoly:
    """Parse '2*x^5 + 3*x^3 + 3*x' style text; the '*' before x may be
    left out, terms may come in any order and repeated exponents are
    merged.  Coefficients use the element text forms of the field ('a^k'
    in extensions, decimal in prime fields)."""
    stripped = text.strip()
    if not stripped:
        raise ParseError("empty polynomial")
    if stripped == "0":
        return SparsePoly.zero(field)
    pieces = _SIGN_RE.split(stripped if stripped[0] in "+-" else "+" + stripped)
    pairs = []
    for sign, term in zip(pieces[1::2], pieces[2::2]):
        term = term.strip()
        if not term:
            raise ParseError(f"empty term in {text!r}")
        m = _TERM_RE.match(term)
        if m:
            c = field.parse_element(m.group("coef")) if m.group("coef") else field.one()
            e = int(m.group("exp") or 1)
        else:
            c, e = field.parse_element(term), 0
        pairs.append((e, -c if sign == "-" else c))
    return SparsePoly.from_pairs(field, pairs)
