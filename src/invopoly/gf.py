"""Finite fields F_{p^n} with exact arithmetic in the polynomial basis.

A field is determined by a prime p, a degree n and a monic irreducible
modulus over Z_p.  When no modulus is supplied the lexicographically
smallest one is chosen (coefficient list compared from the constant term
upward), so construction is fully deterministic and results are
reproducible from the (p, n) pair alone.

Elements are length-n coefficient vectors; the integer encoding of an
element is sum(c_i * p**i).  The cached primitive element alpha is the
element of smallest encoding whose multiplicative order is q - 1.  For
q up to TABLE_LIMIT, exp/log tables are built lazily and all multiplicative
work goes through them; the generic vector arithmetic gives identical
results above that bound.
"""

from __future__ import annotations

import math
import re
from typing import Iterator, Sequence

from .errors import (
    DivisionByZero,
    NotADivisor,
    NotIrreducible,
    NotPrime,
    Overflow,
    ParseError,
    WrongFieldShape,
)

ENCODING_LIMIT = 1 << 31   # fields with q above this are rejected outright
TABLE_LIMIT = 1 << 16      # exp/log tables are built lazily up to this q

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for b in _MR_BASES:
        if n == b:
            return True
        if n % b == 0:
            return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorisation of n >= 1 as (prime, multiplicity) pairs."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for prime, mult in factorize(n):
        divs = [d * prime**k for d in divs for k in range(mult + 1)]
    return sorted(divs)


# -- dense Z_p[x] helpers used only for modulus search -----------------------
# Polynomials are int lists, constant term first, trailing zeros trimmed.

def _zp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic
    a = list(a)
    n = len(f) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] % p
        if c:
            for j in range(n + 1):
                a[k - n + j] = (a[k - n + j] - c * f[j]) % p
    del a[n:]
    return _zp_trim(a)


def _zp_mulmod(a: list[int], b: list[int], f: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] += ai * bj
    return _zp_mod([c % p for c in prod], f, p)


def _zp_powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    result = [1]
    base = _zp_mod(a, f, p)
    while e:
        if e & 1:
            result = _zp_mulmod(result, base, f, p)
        base = _zp_mulmod(base, base, f, p)
        e >>= 1
    return result


def _zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [c * inv % p for c in b]
        a, b = b, _zp_mod(a, monic, p)
    return a


def _zp_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree n is irreducible iff gcd(f, x^{p^k} - x) = 1
    for every k <= n/2 (catches any factor of degree at most n/2)."""
    f = list(f)
    n = len(f) - 1
    if n == 1:
        return True
    if f[0] % p == 0:
        return False
    t = [0, 1]
    for _ in range(n // 2):
        t = _zp_powmod(t, p, f, p)
        u = list(t) + [0, 0]
        u[1] = (u[1] - 1) % p
        if len(_zp_gcd(f, u, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    top = p**n
    for m in range(p ** (n - 1), top):   # first base-p digit (= constant term) nonzero
        coeffs = []
        rest = m
        for i in range(n - 1, -1, -1):
            coeffs.append(rest // p**i)
            rest %= p**i
        coeffs.append(1)
        if _zp_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise NotIrreducible(f"no monic irreducible of degree {n} over Z_{p}")  # pragma: no cover


class _Tables:
    __slots__ = ("exp", "log", "vec")

    def __init__(self, exp: list[int], log: list[int], vec: list[tuple[int, ...]] | None):
        self.exp = exp
        self.log = log
        self.vec = vec


class Element:
    """An element of a Field: an immutable coefficient vector with its encoding."""

    __slots__ = ("field", "coeffs", "enc")

    def __init__(self, field: Field, coeffs: tuple[int, ...], enc: int):
        self.field = field
        self.coeffs = coeffs
        self.enc = enc

    @property
    def encoding(self) -> int:
        return self.enc

    @property
    def is_zero(self) -> bool:
        return self.enc == 0

    def _same_field(self, other: Element) -> None:
        if self.field is not other.field and self.field != other.field:
            raise ValueError("elements belong to different fields")

    def __bool__(self) -> bool:
        return self.enc != 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.enc == other.enc and self.field == other.field

    def __hash__(self) -> int:
        return hash((self.field._key, self.enc))

    def __add__(self, other: Element) -> Element:
        self._same_field(other)
        f = self.field
        if f.p == 2:
            return f._from_enc(self.enc ^ other.enc)
        return f._from_vec(tuple((a + b) % f.p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> Element:
        f = self.field
        if f.p == 2:
            return self
        return f._from_vec(tuple(-a % f.p for a in self.coeffs))

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __mul__(self, other: Element) -> Element:
        self._same_field(other)
        f = self.field
        a, b = self.enc, other.enc
        if a == 0 or b == 0:
            return f.zero()
        tab = f._tables()
        if tab is not None:
            return f._from_enc(tab.exp[(tab.log[a] + tab.log[b]) % (f.q - 1)])
        if f.p == 2:
            return f._from_enc(f._mul2(a, b))
        return f._from_vec(f._vec_mul(self.coeffs, other.coeffs))

    def inverse(self) -> Element:
        if self.enc == 0:
            raise DivisionByZero("zero has no inverse")
        f = self.field
        tab = f._tables()
        if tab is not None:
            return f._from_enc(tab.exp[(f.q - 1 - tab.log[self.enc]) % (f.q - 1)])
        return self ** (f.q - 2)

    def __truediv__(self, other: Element) -> Element:
        return self * other.inverse()

    def __pow__(self, e: int) -> Element:
        f = self.field
        if self.enc == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return f.one() if e == 0 else self
        e %= f.q - 1 if f.q > 2 else 1
        if e == 0:
            return f.one()
        tab = f._tables()
        if tab is not None:
            return f._from_enc(tab.exp[tab.log[self.enc] * e % (f.q - 1)])
        result = f.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __str__(self) -> str:
        if self.enc == 0:
            return "0"
        if self.field.n == 1:
            return str(self.enc)
        return f"a^{self.field.discrete_log(self)}"

    def __repr__(self) -> str:
        return self.__str__()


class Field:
    """F_{p^n} in the polynomial basis modulo a monic irreducible.

    Build instances through make_field / parse_field, not directly.
    """

    __slots__ = ("p", "n", "q", "modulus", "_alpha_enc", "_tab", "_key")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._alpha_enc: int | None = None
        self._tab: _Tables | None = None
        self._key = (p, n, modulus)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def spec_string(self) -> str:
        """Pinned text form 'p^n/c0,c1,...,cn'; parse_field round-trips it."""
        return f"{self.p}^{self.n}/" + ",".join(str(c) for c in self.modulus)

    # -- element construction ------------------------------------------------

    def _from_enc(self, enc: int) -> Element:
        rest = enc
        coeffs = []
        for _ in range(self.n):
            rest, c = divmod(rest, self.p)
            coeffs.append(c)
        return Element(self, tuple(coeffs), enc)

    def _from_vec(self, coeffs: tuple[int, ...]) -> Element:
        enc = 0
        for c in reversed(coeffs):
            enc = enc * self.p + c
        return Element(self, coeffs, enc)

    def element(self, value: int | str | Sequence[int] | Element) -> Element:
        """Coerce an encoding, text form or coefficient vector to an Element."""
        if isinstance(value, Element):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, str):
            return self.parse_element(value)
        if isinstance(value, int):
            if not 0 <= value < self.q:
                raise ParseError(f"encoding {value} out of range for q={self.q}")
            return self._from_enc(value)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) != self.n:
            raise ParseError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return self._from_vec(coeffs)

    def zero(self) -> Element:
        return self._from_enc(0)

    def one(self) -> Element:
        return self._from_enc(1)

    def scalar(self, k: int) -> Element:
        """Image of the integer k under Z -> F_q (k times the identity)."""
        return self._from_vec((k % self.p,) + (0,) * (self.n - 1))

    @property
    def alpha(self) -> Element:
        return self._from_enc(self._alpha_enc)

    def pow_alpha(self, k: int) -> Element:
        return self.alpha ** k

    def elements(self) -> Iterator[Element]:
        """All q elements in ascending encoding order."""
        for enc in range(self.q):
            yield self._from_enc(enc)

    # -- raw arithmetic ------------------------------------------------------

    def _mul2(self, a: int, b: int) -> int:
        # carry-less multiply mod the modulus bitmask, characteristic 2 only
        mask = 0
        for i, c in enumerate(self.modulus):
            if c:
                mask |= 1 << i
        top = 1 << self.n
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mask
        return r

    def _vec_mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, n, mod = self.p, self.n, self.modulus
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        for k in range(2 * n - 2, n - 1, -1):
            c = prod[k] % p
            if c:
                for j in range(n):
                    prod[k - n + j] -= c * mod[j]
        return tuple(prod[j] % p for j in range(n))

    def _vec_pow(self, v: tuple[int, ...], e: int) -> tuple[int, ...]:
        result = (1,) + (0,) * (self.n - 1)
        base = v
        while e:
            if e & 1:
                result = self._vec_mul(result, base)
            base = self._vec_mul(base, base)
            e >>= 1
        return result

    def _tables(self) -> _Tables | None:
        if self.q > TABLE_LIMIT or self._alpha_enc is None:
            return None
        if self._tab is None:
            q, p = self.q, self.p
            exp = [0] * (q - 1)
            log = [-1] * q
            if p == 2:
                cur, a = 1, self._alpha_enc
                for i in range(q - 1):
                    exp[i] = cur
                    log[cur] = i
                    cur = self._mul2(cur, a)
                vec = None
            elif self.n == 1:
                cur, a = 1, self._alpha_enc
                for i in range(q - 1):
                    exp[i] = cur
                    log[cur] = i
                    cur = cur * a % p
                vec = None
            else:
                cur = (1,) + (0,) * (self.n - 1)
                avec = self._from_enc(self._alpha_enc).coeffs
                for i in range(q - 1):
                    enc = 0
                    for c in reversed(cur):
                        enc = enc * p + c
                    exp[i] = enc
                    log[enc] = i
                    cur = self._vec_mul(cur, avec)
                vec = [self._from_enc(e).coeffs for e in range(q)]
            self._tab = _Tables(exp, log, vec)
        return self._tab

    # -- multiplicative structure --------------------------------------------

    def discrete_log(self, x: Element) -> int:
        """k in [0, q-1) with alpha^k = x; baby-step giant-step off-table."""
        if x.is_zero:
            raise DivisionByZero("discrete log of zero")
        tab = self._tables()
        if tab is not None:
            return tab.log[x.enc]
        m = math.isqrt(self.q - 2) + 1
        baby: dict[int, int] = {}
        cur = self.one()
        for j in range(m):
            baby.setdefault(cur.enc, j)
            cur = cur * self.alpha
        giant = self.alpha ** (-m)
        cur = x
        for i in range(m + 1):
            j = baby.get(cur.enc)
            if j is not None:
                return (i * m + j) % (self.q - 1)
            cur = cur * giant
        raise AssertionError("unreachable: alpha generates the unit group")  # pragma: no cover

    def subgroup(self, d: int) -> tuple[Element, list[Element]]:
        """Generator omega = alpha^{(q-1)/d} and [omega^0, ..., omega^{d-1}]."""
        if d < 1 or (self.q - 1) % d:
            raise NotADivisor(f"{d} does not divide q-1 = {self.q - 1}")
        omega = self.alpha ** ((self.q - 1) // d)
        elems = [self.one()]
        for _ in range(d - 1):
            elems.append(elems[-1] * omega)
        return omega, elems

    # -- text forms ----------------------------------------------------------

    def parse_element(self, text: str) -> Element:
        """Accepts '0', 'a^k' (power of alpha), 'a', a decimal encoding, or a
        coefficient vector 'c0,c1,...' (constant term first)."""
        t = text.strip()
        if not t:
            raise ParseError("empty element literal")
        if "," in t:
            try:
                coeffs = [int(c) for c in t.split(",")]
            except ValueError:
                raise ParseError(f"bad element literal {text!r}") from None
            return self.element(coeffs)
        if t == "0":
            return self.zero()
        if t == "a":
            return self.alpha
        if t.startswith("a^"):
            try:
                k = int(t[2:])
            except ValueError:
                raise ParseError(f"bad exponent in element literal {text!r}") from None
            return self.alpha ** k
        try:
            enc = int(t)
        except ValueError:
            raise ParseError(f"bad element literal {text!r}") from None
        if not 0 <= enc < self.q:
            raise ParseError(f"encoding {enc} out of range for q={self.q}")
        return self._from_enc(enc)


def make_field(p: int, n: int = 1, modulus: Sequence[int] | None = None) -> Field:
    """Construct F_{p^n}; modulus defaults to the lexicographically smallest
    monic irreducible (coefficient list read from the constant term up)."""
    if not isinstance(p, int) or not _is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"degree must be a positive integer, got {n}")
    # bound q by n * log2(p), with a margin for rounding, before computing
    # p**n, which could take minutes
    if n * math.log2(p) > math.log2(ENCODING_LIMIT) + 1 or p**n > ENCODING_LIMIT:
        raise Overflow(f"q = {p}^{n} exceeds the {ENCODING_LIMIT} encoding limit")
    if modulus is None:
        mod = _smallest_irreducible(p, n)
    else:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != n + 1 or mod[-1] != 1:
            raise NotIrreducible(f"modulus must be monic of degree {n}: {list(mod)}")
        if any(not 0 <= c < p for c in mod):
            raise NotIrreducible(f"modulus coefficients must lie in [0, {p})")
        if not _zp_is_irreducible(mod, p):
            raise NotIrreducible(f"modulus {list(mod)} is reducible over Z_{p}")
    field = Field(p, n, mod)
    field._alpha_enc = _find_primitive(field)
    return field


def _find_primitive(field: Field) -> int:
    q = field.q
    checks = [(q - 1) // prime for prime, _ in factorize(q - 1)]
    one = (1,) + (0,) * (field.n - 1)
    for enc in range(1, q):
        v = field._from_enc(enc).coeffs
        if all(field._vec_pow(v, e) != one for e in checks):
            return enc
    raise AssertionError("unreachable: F_q* is cyclic")  # pragma: no cover


_FIELD_RE = re.compile(r"^(\d+)(?:\^(\d+))?(?:/([0-9,]+))?$")


def parse_field(text: str) -> Field:
    """Parse 'p', 'p^n' or 'p^n/c0,c1,...,cn' into a Field.

    The base may itself be a prime power ('9' and '3^2' name the same
    field), since q is how fields are usually referred to."""
    m = _FIELD_RE.match(text.strip())
    if not m:
        raise ParseError(f"bad field spec {text!r}")
    p = int(m.group(1))
    n = int(m.group(2)) if m.group(2) else 1
    if p > ENCODING_LIMIT:
        # no field this large is built, and factorizing p could take minutes
        raise Overflow(f"q = {p}^{n} exceeds the {ENCODING_LIMIT} encoding limit")
    if p >= 2 and not _is_prime(p):
        fac = factorize(p)
        if len(fac) == 1:
            p, j = fac[0]
            n *= j
    modulus = [int(c) for c in m.group(3).split(",")] if m.group(3) else None
    return make_field(p, n, modulus)


def subfield_embedding(base: Field, ext: Field):
    """The embedding F_{p^k} -> F_{p^{km}} sending the basis generator of the
    base field to the smallest-encoding root of the base modulus in ext.

    Returns a callable Element -> Element.
    """
    if base.p != ext.p or ext.n % base.n:
        raise WrongFieldShape(
            f"{base!r} does not embed in {ext!r}: need same p and degree divisibility")
    if base.n == 1:
        return lambda x: ext.scalar(x.enc)
    # the image of the subfield's unit group is the unique subgroup of order q_b - 1
    gen = ext.alpha ** ((ext.q - 1) // (base.q - 1))
    candidates = [ext.zero(), ext.one()]
    cur = gen
    for _ in range(base.q - 2):
        candidates.append(cur)
        cur = cur * gen
    roots = []
    for y in candidates:
        acc = ext.zero()
        for c in reversed(base.modulus):
            acc = acc * y + ext.scalar(c)
        if acc.is_zero:
            roots.append(y)
    if not roots:
        raise AssertionError("unreachable: base modulus splits in the subfield")  # pragma: no cover
    root = min(roots, key=lambda y: y.enc)
    powers = [ext.one()]
    for _ in range(base.n - 1):
        powers.append(powers[-1] * root)

    def embed(x: Element) -> Element:
        acc = ext.zero()
        for c, w in zip(x.coeffs, powers):
            if c:
                acc = acc + ext.scalar(c) * w
        return acc

    return embed
