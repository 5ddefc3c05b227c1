"""Finite fields F_{p^n} with exact arithmetic in the polynomial basis.

A field is determined by a prime p, a degree n and a monic irreducible
modulus over Z_p.  When no modulus is supplied the lexicographically
smallest one is chosen (coefficient list compared from the constant term
upward), so construction is fully deterministic and results are
reproducible from the (p, n) pair alone.

An element is its integer encoding sum(c_i * p**i) of the coefficient
vector (c_0, ..., c_{n-1}); Element wraps one encoding, and the vector is
computed only when asked for.  Each field does its arithmetic on
encodings through one kernel (add, mul and pow; neg multiplies by -1)
picked when the field is made: integer arithmetic mod p for prime fields,
and in extensions a multiply that loops over the bits (p = 2) or base-p
digits of one operand, which the modulus search and fields up to
TABLE_LIMIT use.  Above TABLE_LIMIT an extension multiplies by one
integer product and one fold (_product_fold): a carry-less 4-bit comb in
characteristic 2, Kronecker substitution where a product's lanes fit a
byte (p = 3 and 5, and 7^6), and the top n - 1 digits of the product
folded back through chunk tables of x^(n+j) mod the modulus (1.2-1.3 us
per product at 3^12, 5^7 and 2^20, against 12, 8 and 2.7 us by the
loops; Python 3.11, shared 2-vCPU host).  Odd extensions add in lanes
(_lanes): spread puts each base-p digit of an encoding in its own w-bit
lane of an integer, such integers add with no carry between digits, and
reduce brings a sum back (byte lanes in C).  The kernel add, the
F_p-linear maps of _linear_map (multiplying by a fixed element, the
Frobenius map a -> a^p), the fold of a product and lifted() sums all use
it; a linear map and a product's fold apply their chunk tables through
the lane object's fold, one call where the reduce fits inline.
Walks over the powers of the primitive element alpha (the element of
smallest encoding whose order is q - 1) step by _times, the multiply by
alpha.  That walk fills the exp/log tables, and pow, and mul in
extensions, become lookups (a prime field keeps a * b % p, which is
faster): for q up to TABLE_LIMIT when the field is made, as lists (3^8
in about 3 ms, 2^16 in 15 ms, 3^10 in 30 ms; Python 3.11, shared 2-vCPU
host); above it on the first whole-field pass (a value table or an oracle
sweep, through alpha_powers), as arrays of 4 bytes per entry, and past
DEFAULT_CAP that pass is refused (FieldTooLarge).  Walks over mu_d never
build them.  Until then pow, in extensions of degree n > 2, walks the
base-p digits of the exponent: each conjugate a^(p^j) is one lookup in a
Frobenius table built on the first power, and only nonzero digits cost a
kernel mul (about 17 us per power at 2^20 and 20 us at 3^12, against 34
and 36 us by square-and-multiply).  SparsePoly.log_values sums terms
in log order through lifted(), each sum reduced once: term by term over
value tables and sweeps, point by point over calls of fewer points than
terms.  SparsePoly.point_values and SparsePoly.subgroup_values, h on
mu_d for the criterion's walk, its confirmations and interpolation, make
the same point-by-point sum where the tables stand (reading the exp
table as it is, lifted(compact=False)) and Horner's rule with the kernel
where they do not.  From 2^14 powers up, whole-field sums that are
encodings (characteristic 2, and single terms) read alpha's powers from
an array of 4 bytes per power: the exp table
itself above TABLE_LIMIT, below it a copy built on the first such sum,
never by make_field: strided reads of a list of int objects are bound by
memory there, while at 2^12 the list was faster.  Discrete logs (the k
printed in 'a^k') go by Pohlig-Hellman over the prime factors of q - 1,
found once per field, with one baby-step giant-step table of about
sqrt(l) entries per prime l, built on first use and kept on the field;
for l above about 1000 a _times table of the giant step is kept beside it.
"""

from __future__ import annotations

import math
import operator
import re
from array import array
from functools import partial
from itertools import accumulate, repeat
from typing import Iterable, Iterator, Sequence

from .errors import (
    DivisionByZero,
    FieldTooLarge,
    NotADivisor,
    NotIrreducible,
    NotPrime,
    Overflow,
    ParseError,
    WrongFieldShape,
)

ENCODING_LIMIT = 1 << 31   # fields with q above this are rejected outright
TABLE_LIMIT = 1 << 16      # fields up to this q get exp/log tables when they are made
DEFAULT_CAP = 1 << 20      # largest whole-field pass, largest d the criterion walks
_LOOKUP_BITS = 12          # _linear_map keeps its lookup tables near 2^12 entries
_GIANT_TABLE_M = 32        # discrete_log multiplies by a giant step of m >= 32 through _times
_DIGIT_CHARS = b"0123456789abcdefghijklmnopqrstuvwxyz"   # int(text, p) reads p <= 36

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


# -- arithmetic kernels on encodings -------------------------------------------

def _kernel(p: int, n: int, modulus: tuple[int, ...]):
    """(add, mul, pow) on encodings mod a monic modulus, without tables;
    pow takes a nonzero base and an exponent in [0, q-1).  mul loops over
    digits (bits for p = 2) and builds nothing, which suits the modulus
    search (a kernel per candidate) and fields up to TABLE_LIMIT (a few
    hundred products before their tables stand); above TABLE_LIMIT Field
    puts _product_fold in its place where that multiply's lanes allow."""
    if n == 1:
        return _prime_kernel(p)
    if p == 2:
        return _char2_kernel(n, modulus)
    return _odd_extension_kernel(p, n, modulus)


def _digits(enc: int, p: int, n: int) -> list[int]:
    """The n coefficients of an encoding, constant term first."""
    out = []
    for _ in range(n):
        enc, c = divmod(enc, p)
        out.append(c)
    return out


def _pow_by_squaring(mul):
    def pow_(a: int, e: int) -> int:
        if not e or a == 1:
            return 1
        r = a
        for bit in bin(e)[3:]:   # left to right, below the leading 1
            r = mul(r, r)
            if bit == "1":
                r = mul(r, a)
        return r
    return pow_


def _prime_kernel(p: int):
    return lambda a, b: (a + b) % p, lambda a, b: a * b % p, lambda a, e: pow(a, e, p)


def _char2_kernel(n: int, modulus: tuple[int, ...]):
    mask = sum(1 << i for i, c in enumerate(modulus) if c)
    top = 1 << n

    def mul(a: int, b: int) -> int:
        # carry-less multiply, reducing by the modulus bitmask as a shifts
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & top:
                a ^= mask
        return r

    return operator.xor, mul, _pow_by_squaring(mul)


def _odd_extension_kernel(p: int, n: int, modulus: tuple[int, ...]):
    low = [(j, c) for j, c in enumerate(modulus[:-1]) if c]
    width = 2 * n - 1
    spread = reduce = None

    def add(a: int, b: int) -> int:
        nonlocal spread, reduce
        if spread is None:   # the lanes on the first add: a modulus search only takes powers
            spread, reduce = _lanes(p, n, (2 * (p - 1)).bit_length())[:2]
        return reduce(spread(a) + spread(b))

    def mul(a: int, b: int) -> int:
        digits = []
        while b:
            b, y = divmod(b, p)
            digits.append(y)
        prod = [0] * width
        i = 0
        while a:
            a, x = divmod(a, p)
            if x:
                for j, y in enumerate(digits, i):
                    prod[j] += x * y
            i += 1
        # x^k = x^(k-n) * (x^n - modulus) for k >= n, top degree first
        for k in range(width - 1, n - 1, -1):
            c = prod[k] % p
            if c:
                for j, m in low:
                    prod[k - n + j] -= c * m
        r = 0
        for k in range(n - 1, -1, -1):
            r = r * p + prod[k] % p
        return r

    return add, mul, _pow_by_squaring(mul)


def _product_fold(p: int, n: int, modulus: tuple[int, ...]):
    """The multiply of an extension field above TABLE_LIMIT: one integer
    product of 2n - 1 digits, then a fold of its top n - 1 digits h through
    chunk tables of the images of x^(n+j) mod the modulus.

    For p = 2 the product is a carry-less 4-bit comb (Lopez and Dahab,
    INDOCRYPT 2000: a table of a times every 4-bit polynomial, four bits of
    b per step) and the fold a _linear_map, XORed into the low n bits.
    Otherwise it is Kronecker substitution (Schoenhage, EUROCAM 1982;
    Harvey, J. Symb. Comput. 2009) in byte lanes, which needs n*p*(p-1) <
    256: a product lane holds up to n*(p-1)^2 and each fold chunk adds up to
    p - 1.  Both operands spread into one _lanes object and multiply as one
    integer; the top lanes reduce to h, and the fold adds the spread image
    of h to the low lanes and reduces once.

    Like the lane object's functions, mul binds what it reads as default
    arguments: locals, and no closure cells for a field to keep (but fold
    for p = 2, built on the first product).
    """
    xn = 0   # x^n mod the modulus
    for c in modulus[-2::-1]:
        xn = xn * p + -c % p
    images, x = [], xn   # x^(n+j) mod the modulus, j < n - 1, for the fold
    if p == 2:
        top, shifts = 1 << n, range(n - 1 & ~3, -1, -4)   # b's nibbles, top first

        def fold(h):
            # the first product builds the tables and rebinds fold to them:
            # a primitive search over a prime q - 1 takes no product
            nonlocal fold
            x = xn
            for _ in range(n - 1):
                images.append(x)
                x <<= 1
                if x & top:
                    x ^= top | xn
            fold = _linear_map(2, n - 1, images)
            return fold(h)

        def mul(a, b, shifts=shifts, top=top):
            a2, a4, a8 = a << 1, a << 2, a << 3
            a3, a5, a6 = a2 ^ a, a4 ^ a, a4 ^ a2
            a7 = a6 ^ a
            comb = (0, a, a2, a3, a4, a5, a6, a7,
                    a8, a8 ^ a, a8 ^ a2, a8 ^ a3, a8 ^ a4, a8 ^ a5, a8 ^ a6, a8 ^ a7)
            r = 0
            for s in shifts:
                r = r << 4 ^ comb[b >> s & 15]
            h, r = divmod(r, top)
            return r ^ fold(h)
        return mul
    spread, reduce, _, fold = _lanes(p, n, 8)
    q = p**n
    for _ in range(n - 1):
        images.append(x)
        hi, lo = divmod(x * p, q)
        x = reduce(spread(lo) + hi * spread(xn))
    fold = fold(images, -(-(n - 1) // _chunk_count(p, n - 1)))
    top = 1 << 8 * n   # the low n lanes of a product are its remainder mod top

    def mul(a, b, spread=spread, reduce=reduce, fold=fold, top=top):
        h, s = divmod(spread(a) * spread(b), top)
        return fold(reduce(h), s)
    return mul


def _chunk_count(p: int, n: int) -> int:
    """The fewest chunks, at least two, of n base-p digits, p^k <= 2^_LOOKUP_BITS."""
    m = 2
    while m < n and p ** -(-n // m) > 1 << _LOOKUP_BITS:
        m += 1
    return m


def _lanes(p: int, n: int, w: int):
    """The lane object of n base-p digits (n > 1) in w-bit lanes: (spread,
    reduce, reduce_sums, fold).  spread goes by chunks (_chunk_count).
    reduce and reduce_sums bring one sum or a list of sums back by up to
    four groups of g lanes in tables of 2^(g*w) <= 2^_LOOKUP_BITS entries,
    each group count in its own shape; past four groups, byte lanes (w = 8,
    p <= 36) in C, as to_bytes, a translate of each lane to its base-p digit
    character and int(..., p), and other lanes by % p one at a time.

    fold(images, k) is the F_p-linear map that sends digit i to images[i],
    in chunk tables of k digits: table j holds the spread image of every
    value of digits jk to jk + k - 1, built a digit at a time (each block is
    the last plus the digit's image, reduced and spread again as one list),
    and a, s=0 -> reduce(s + the sum of a's chunk lookups) applies it, in
    one call with the reduce inline up to two tables and three groups.
    Functions a field keeps bind their tables as default arguments: they
    read locals, and leave no closure cell per table alive."""
    k = -(-n // _chunk_count(p, n))
    P, t = p**k, [0]
    for i in range(k):
        t = [x + (c << w * i) for c in range(p) for x in t]
    tables = [[x << w * lo for x in t] for lo in range(0, n, k)]
    if len(tables) == 2:
        t0, t1 = tables
        spread = lambda a, t0=t0, t1=t1, P=P: t0[a % P] + t1[a // P]
    elif len(tables) == 3:
        t0, t1, t2 = tables
        spread = lambda a, t0=t0, t1=t1, t2=t2, P=P: t0[a % P] + t1[a // P % P] + t2[a // P // P]
    else:
        places = [P**j for j in range(len(tables))]
        spread = lambda a: sum(t[a // c % P] for t, c in zip(tables, places))
    g = max(1, min(_LOOKUP_BITS, (p**n).bit_length()) // w)
    g = -(-n // -(-n // g))   # the same groups, balanced
    digits = reds = reduce_sums = None
    if w > _LOOKUP_BITS or n > 4 * g:   # past four groups
        if w == 8 and p <= 36:
            digits = (_DIGIT_CHARS[:p] * 256)[:256]   # byte v translates to the digit v % p
            reduce = lambda s, n=n, digits=digits, p=p: int(s.to_bytes(n, "big").translate(digits), p)
        else:
            m, tops = (1 << w) - 1, range(w * (n - 1), -1, -w)

            def reduce(s: int) -> int:
                r = 0
                for b in tops:
                    r = r * p + (s >> b & m) % p
                return r
    else:
        red = [0]
        for place in (p**i for i in range(g)):
            red = [r + v for v in [x % p * place for x in range(1 << w)] for r in red]
        reds = [[r * place for r in red] for place in (p**lo for lo in range(0, n, g))]
        gw, gm = g * w, (1 << g * w) - 1
        gw2, gw3 = 2 * gw, 3 * gw
        if len(reds) == 2:   # n * w exceeds bitlen(p^n), so there are at least two groups
            r0, r1 = reds
            reduce = lambda s, r0=r0, r1=r1, gm=gm, gw=gw: r0[s & gm] + r1[s >> gw]
            reduce_sums = lambda sums: [r0[s & gm] + r1[s >> gw] for s in sums]
        elif len(reds) == 3:
            r0, r1, r2 = reds
            reduce = lambda s, r0=r0, r1=r1, r2=r2, gm=gm, gw=gw, gw2=gw2: (
                r0[s & gm] + r1[s >> gw & gm] + r2[s >> gw2])
            reduce_sums = lambda sums: [r0[s & gm] + r1[s >> gw & gm] + r2[s >> gw2] for s in sums]
        else:
            r0, r1, r2, r3 = reds
            reduce = lambda s, r0=r0, r1=r1, r2=r2, r3=r3, gm=gm, gw=gw, gw2=gw2, gw3=gw3: (
                r0[s & gm] + r1[s >> gw & gm] + r2[s >> gw2 & gm] + r3[s >> gw3])
            reduce_sums = lambda sums: [r0[s & gm] + r1[s >> gw & gm] + r2[s >> gw2 & gm]
                                        + r3[s >> gw3] for s in sums]
    if reduce_sums is None:   # byte lanes and lane by lane: a reduce call per sum
        reduce_sums = lambda sums: [reduce(s) for s in sums]

    def fold(images, k):
        tables = [[0] for _ in range(-(-len(images) // k))]
        for i, img in enumerate(images):
            block, y = tables[i // k], spread(img)
            for _ in range(p - 1):
                block = [spread(e) for e in reduce_sums([x + y for x in block])]
                tables[i // k] += block
        P = p**k
        if len(tables) > 2 or digits is None and (reds is None or len(reds) > 3):
            places = [P**j for j in range(len(tables))]
            return lambda a, s=0: reduce(s + sum(t[a // c % P] for t, c in zip(tables, places)))
        t0, t1 = tables if len(tables) == 2 else (tables[0], [0])
        if digits is not None:
            return lambda a, s=0, t0=t0, t1=t1, P=P, n=n, digits=digits, p=p: int(
                (s + t0[a % P] + t1[a // P]).to_bytes(n, "big").translate(digits), p)
        if len(reds) == 2:
            return lambda a, s=0, t0=t0, t1=t1, P=P, r0=r0, r1=r1, gm=gm, gw=gw: (
                r0[(x := s + t0[a % P] + t1[a // P]) & gm] + r1[x >> gw])
        return lambda a, s=0, t0=t0, t1=t1, P=P, r0=r0, r1=r1, r2=r2, gm=gm, gw=gw, gw2=gw2: (
            r0[(x := s + t0[a % P] + t1[a // P]) & gm] + r1[x >> gw & gm] + r2[x >> gw2])
    return spread, reduce, reduce_sums, fold


def _linear_map(p: int, n: int, images: Sequence[int]):
    """The F_p-linear map on encodings (n > 1) that sends x^i to images[i],
    as lookups in chunk tables (the multiply by a constant of Shoup, CRYPTO
    1996, for any linear map).

    An encoding's image is the sum of the images of its m chunks of k
    digits (_chunk_count).  Characteristic 2 XORs images: one chunk up to
    2^12, and at most three, as q <= ENCODING_LIMIT keeps n <= 31.
    Otherwise it is the fold of _lanes of w = bitlen(m*(p-1)) bits, so
    the spread images of m chunks add with no carry.
    """
    m = 1 if p == 2 and n <= _LOOKUP_BITS else _chunk_count(p, n)
    k = -(-n // m)
    if p == 2:
        tables = [[0], [0], [0]]
        for i, img in enumerate(images):
            tables[i // k] += [x ^ img for x in tables[i // k]]
        (t0, t1, t2), mask = tables, (1 << k) - 1
        if m == 1:
            return t0.__getitem__
        if m == 2:
            return lambda a, t0=t0, t1=t1, mask=mask, k=k: t0[a & mask] ^ t1[a >> k]
        return lambda a, t0=t0, t1=t1, t2=t2, mask=mask, k=k: (
            t0[a & mask] ^ t1[a >> k & mask] ^ t2[a >> 2 * k])
    return _lanes(p, n, (m * (p - 1)).bit_length())[3](images, k)


def _times(p: int, n: int, mul, c: int):
    """enc -> enc * c on encodings for a fixed c: the linear map with images
    x^i * c from the kernel mul, or mul itself up to 16 elements, where
    tables would cost more than they save."""
    if n == 1 or p**n <= 16:
        return (lambda a: a * c % p) if n == 1 else lambda a: mul(a, c)
    return _linear_map(p, n, [mul(p**i, c) for i in range(n)])


def _frobenius(p: int, n: int, mul, pow_):
    """a -> a^p on encodings (n > 1): the linear map with images x^(i*p),
    from the kernel mul and pow_."""
    images, xp = [1], pow_(p, p)   # p encodes x
    for _ in range(n - 1):
        images.append(mul(images[-1], xp))
    return _linear_map(p, n, images)


def _digit_pow(p: int, n: int, mul, pow_):
    """(a, e) -> a^e on encodings (n > 1, e < q) by the base-p digits e_j of
    e (Itoh and Tsujii, Inf. Comput. 1988): a^e = prod_j (a^(p^j))^e_j, each
    conjugate a^(p^j) one lookup in the Frobenius table (built on the first
    call) from the last.  Conjugates under equal digits are multiplied
    first; the products B_v are joined as prod_i A_i^(v_i - v_(i+1)) over the
    digits v_1 > v_2 > ... present, A_i = B_(v_1) ... B_(v_i) (Yao, SIAM J.
    Comput. 1976): p = 2 costs one kernel mul per nonzero digit past the first."""
    frob = None

    def digit_pow(a: int, e: int) -> int:
        nonlocal frob
        if a == 1:
            return 1
        if frob is None:
            frob = _frobenius(p, n, mul, pow_)
        groups: dict[int, int] = {}
        while True:
            e, v = divmod(e, p)
            if v:
                groups[v] = mul(groups[v], a) if v in groups else a
            if not e:
                break
            a = frob(a)
        r = acc = 0
        vs = sorted(groups, reverse=True)
        for v, u in zip(vs, vs[1:] + [0]):
            acc = mul(acc, groups[v]) if acc else groups[v]
            t = pow_(acc, v - u) if v - u > 1 else acc
            r = mul(r, t) if r else t
        return r or 1
    return digit_pow


# -- modulus search ----------------------------------------------------------
# Polynomials are int lists, constant term first, trailing zeros trimmed.

def _zp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zp_mod(a: list[int], f: list[int], p: int) -> list[int]:
    # f monic; its top term only clears a[k], which is dropped
    a = list(a)
    n = len(f) - 1
    low = [(j, c) for j, c in enumerate(f[:-1]) if c]
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k] % p
        if c:
            for j, m in low:
                a[k - n + j] = (a[k - n + j] - c * m) % p
    del a[n:]
    return _zp_trim(a)


def _zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = _zp_trim(list(a)), _zp_trim(list(b))
    while b:
        inv = pow(b[-1], -1, p)
        monic = [c * inv % p for c in b]
        a, b = b, _zp_mod(a, monic, p)
    return a


def _zp_is_irreducible(f: Sequence[int], p: int) -> bool:
    """Monic f of degree n is irreducible iff gcd(f, x^{p^k} - x) = 1
    for every k <= n/2 (catches any factor of degree at most n/2).  The
    kernel takes the powers of x mod f, which needs f monic, not irreducible."""
    f = tuple(f)
    n = len(f) - 1
    if n == 1:
        return True
    if f[0] % p == 0:
        return False
    pow_ = _kernel(p, n, f)[2]
    t = p   # the encoding of x
    for _ in range(n // 2):
        t = pow_(t, p)
        u = _digits(t, p, n)
        u[1] = (u[1] - 1) % p
        if len(_zp_gcd(f, u, p)) > 1:
            return False
    return True


def _smallest_irreducible(p: int, n: int) -> tuple[int, ...]:
    if n == 1:
        return (0, 1)
    top = p**n
    for m in range(p ** (n - 1), top):   # first base-p digit (= constant term) nonzero
        coeffs = _digits(m, p, n)[::-1] + [1]
        if _zp_is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise NotIrreducible(f"no monic irreducible of degree {n} over Z_{p}")  # pragma: no cover


def _unchanged(sums):
    """reduce_sums and reduce where sums are already encodings."""
    return sums


class Element:
    """An element of a Field, held as its integer encoding."""

    __slots__ = ("field", "enc")

    def __init__(self, field: Field, enc: int):
        self.field = field
        self.enc = enc

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Coefficient vector in the polynomial basis, constant term first."""
        return tuple(_digits(self.enc, self.field.p, self.field.n))

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
        return Element(f, f.add(self.enc, other.enc))

    def __neg__(self) -> Element:
        f = self.field
        return Element(f, f.neg(self.enc))

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    def __mul__(self, other: Element) -> Element:
        self._same_field(other)
        f = self.field
        return Element(f, f.mul(self.enc, other.enc))

    def inverse(self) -> Element:
        if self.enc == 0:
            raise DivisionByZero("zero has no inverse")
        return self ** -1

    def __truediv__(self, other: Element) -> Element:
        return self * other.inverse()

    def __pow__(self, e: int) -> Element:
        f = self.field
        return Element(f, f.pow(self.enc, e))

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

    add, neg, mul and pow act on encodings; Element is the user-facing
    wrapper around them.  Build instances through make_field /
    parse_field, not directly.
    """

    __slots__ = ("p", "n", "q", "modulus", "_alpha_enc", "_key", "_factors",
                 "add", "mul", "_pow", "_exp", "_log", "_lift", "_words", "_dlog_tables")

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p**n
        self.modulus = modulus
        self._key = (p, n, modulus)
        self.add, self.mul, self._pow = _kernel(p, n, modulus)
        # above the limit in characteristic 2, and in odd extensions whose
        # product lanes fit a byte (p = 3 and 5, and 7^6): wider lanes
        # reduce by a lookup per digit, and there the loop measured as fast
        if self.q > TABLE_LIMIT and n > 1 and (p == 2 or n * p * (p - 1) < 256):
            self.mul = _product_fold(p, n, modulus)
            self._pow = _pow_by_squaring(self.mul)
        self._exp = self._log = self._lift = self._words = None
        self._factors = factorize(self.q - 1)
        self._dlog_tables: dict[int, tuple] = {}
        self._alpha_enc = _find_primitive(self)
        if self.q <= TABLE_LIMIT:
            self._use_tables()
        elif n > 2:   # at n = 2, p > 256: the table costs more than one conjugate saves
            self._pow = _digit_pow(p, n, self.mul, self._pow)

    def _use_tables(self) -> None:
        """Walk the powers of alpha once, through the chunk-table multiply
        by alpha, to fill exp/log, then switch pow, and mul in extensions,
        to table lookups; add stays the kernel's, and so does a prime
        field's a * b % p (84 against 360 ns by lookups at 65521).  Above
        TABLE_LIMIT the tables are arrays of 4 bytes per entry, and past
        DEFAULT_CAP the walk is refused before its first step: this is the
        bound of every whole-field pass."""
        q = self.q
        if q > DEFAULT_CAP:
            raise FieldTooLarge(f"value table over q = {q} exceeds {DEFAULT_CAP}")
        qm1, cur = q - 1, 1
        if q > TABLE_LIMIT:
            exp, log = array("I", [0]) * qm1, array("i", [-1]) * q
        else:
            exp, log = [0] * qm1, [-1] * q
        times_alpha = _times(self.p, self.n, self.mul, self._alpha_enc)
        for i in range(qm1):
            exp[i] = cur
            log[cur] = i
            cur = times_alpha(cur)
        self._exp, self._log = exp, log

        if self.n > 1:
            self.mul = lambda a, b: exp[(log[a] + log[b]) % qm1] if a and b else 0
        self._pow = lambda a, e: exp[log[a] * e % qm1]

    # -- identity ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Field):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __reduce__(self):
        # the kernel is closures, which pickle cannot store; rebuild instead
        return Field, self._key

    def __repr__(self) -> str:
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def spec_string(self) -> str:
        """Pinned text form 'p^n/c0,c1,...,cn'; parse_field round-trips it."""
        return f"{self.p}^{self.n}/" + ",".join(str(c) for c in self.modulus)

    # -- element construction ------------------------------------------------

    def element(self, value: int | str | Sequence[int] | Element) -> Element:
        """Coerce an encoding (through operator.index: True is 1, 3.0 a
        TypeError), text form or coefficient vector to an Element."""
        if isinstance(value, int) or not isinstance(value, (Element, str, Iterable)):
            enc = operator.index(value)
            if not 0 <= enc < self.q:
                raise ParseError(f"encoding {enc} out of range for q={self.q}")
            return Element(self, enc)
        if isinstance(value, Element):
            if value.field != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, str):
            return self.parse_element(value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) != self.n:
            raise ParseError(f"expected {self.n} coefficients, got {len(coeffs)}")
        enc = 0
        for c in reversed(coeffs):
            enc = enc * self.p + c
        return Element(self, enc)

    def zero(self) -> Element:
        return Element(self, 0)

    def one(self) -> Element:
        return Element(self, 1)

    def scalar(self, k: int) -> Element:
        """Image of the integer k under Z -> F_q (k times the identity)."""
        return Element(self, k % self.p)

    @property
    def alpha(self) -> Element:
        return Element(self, self._alpha_enc)

    def pow_alpha(self, k: int) -> Element:
        return self.alpha ** k

    def elements(self) -> Iterator[Element]:
        """All q elements in ascending encoding order."""
        for enc in range(self.q):
            yield Element(self, enc)

    # -- arithmetic on encodings ---------------------------------------------

    def neg(self, a: int) -> int:
        return self.mul(a, self.p - 1)

    def pow(self, a: int, e: int) -> int:
        """a^e on encodings; a negative e inverts a first."""
        if a == 0:
            if e < 0:
                raise DivisionByZero("negative power of zero")
            return 1 if e == 0 else 0
        e %= self.q - 1   # no pow for a base 1 or an exponent 0 or 1
        return (a if e else 1) if e < 2 or a == 1 else self._pow(a, e)

    def alpha_powers(self) -> list[int] | array:
        """alpha^0, alpha^1, ..., alpha^(q-2) as encodings: the exp table,
        which above TABLE_LIMIT the first call builds with the log table
        (FieldTooLarge past DEFAULT_CAP)."""
        if self._exp is None:
            self._use_tables()
        return self._exp

    def lifted(self, terms: int, compact: bool = True):
        """(lift, reduce_sums, reduce) to sum `terms` terms in log order:
        lift[k] is alpha^k (alpha_powers) as an integer that adds with no
        carry, by + (XOR in characteristic 2): its encoding, or in odd
        extensions its _lanes of w = bitlen(terms*(p-1)) bits, kept (rebuilt
        wider on demand).  Encodings from 2^14 powers up come from an
        array('I') for whole-field passes: the exp table where it is one,
        otherwise a copy kept from the first call that needs it; compact =
        False, for sums over a few points (mu_d), reads the exp table as it
        is and builds no copy.  Lanes come from a 64-bit array where they
        fit.  reduce_sums brings a list of sums back, reduce one."""
        exp, p, n = self.alpha_powers(), self.p, self.n
        if p == 2 or terms < 2:   # XOR sums, and single terms, are encodings
            if not compact:
                return exp, _unchanged, _unchanged
            if self._words is None:   # a list reads faster below 2^14 powers, not above
                self._words = (exp if len(exp) >> 14 == 0 or isinstance(exp, array)
                               else array("I", exp))
            return self._words, _unchanged, _unchanged
        if n == 1:
            return exp, lambda sums: [s % p for s in sums], p.__rmod__
        lifted = self._lift
        if lifted is None or lifted[0] < terms:
            w = (terms * (p - 1)).bit_length()
            spread, reduce, reduce_sums, _ = _lanes(p, n, w)
            lift = map(spread, exp)
            # above 2^14 entries, 64-bit lanes in an array take a quarter of a list
            lift = array("Q", lift) if len(exp) >> 14 and n * w <= 64 else list(lift)
            self._lift = lifted = ((1 << w) - 1) // (p - 1), lift, reduce_sums, reduce
        return lifted[1:]

    # -- multiplicative structure --------------------------------------------

    @property
    def log_table(self) -> list[int] | None:
        """log_table[x] = k with alpha^k = x for x != 0, and -1 at 0; None
        above TABLE_LIMIT until the first whole-field pass (alpha_powers)."""
        return self._log

    def discrete_log(self, x: Element) -> int:
        """k in [0, q-1) with alpha^k = x.

        A lookup when the field has tables.  Otherwise Pohlig-Hellman: for
        each prime power l^e exactly dividing q - 1, x^((q-1)/l^e) lies in
        the subgroup of order l^e, where its log is found one base-l digit
        at a time, each digit a baby-step giant-step search in the subgroup
        of order l; the Chinese remainder theorem joins the residues mod l^e.
        Every power is the field's pow, by base-p digits through the
        Frobenius table in extension fields.
        """
        if x.is_zero:
            raise DivisionByZero("discrete log of zero")
        if self._log is not None:
            return self._log[x.enc]
        qm1 = self.q - 1
        k = 0
        for prime, mult in self._factors:
            order = prime**mult
            cofactor = qm1 // order
            # y = g^(k mod order) for g = alpha^cofactor, of order prime^mult
            y = self.pow(x.enc, cofactor)
            baby, times_giant, m, g_inv = self._dlog_table(prime, cofactor)
            residue, place = 0, 1
            for j in range(mult - 1, -1, -1):
                # z = gamma^digit, gamma = g^(prime^(mult-1)) of order prime
                z = self.pow(y, prime**j) if j else y
                for i in range(m):
                    b = baby.get(z)
                    if b is not None:
                        break
                    z = times_giant(z)
                else:  # pragma: no cover
                    raise AssertionError("unreachable: z lies in the subgroup of order prime")
                digit = i * m + b
                if digit and j:
                    y = self.mul(y, self.pow(g_inv, digit * place))   # strip the digit
                residue += digit * place
                place *= prime
            k += residue * cofactor * pow(cofactor, -1, order)
        return k % qm1

    def _dlog_table(self, prime: int, cofactor: int):
        """Search data for a prime factor of q - 1, built on first use and
        kept on the field: the baby steps gamma^j -> j for j < m =
        ceil(sqrt(prime)), where gamma = alpha^((q-1)/prime) has order
        prime; the multiply by the giant step gamma^-m, which is a
        chunk-table lookup (_times) from m = _GIANT_TABLE_M on, where a
        few searches of up to m steps each pay for the table; m; and
        alpha^-cofactor, which strips the digits found in the subgroup of
        order prime^mult."""
        table = self._dlog_tables.get(prime)
        if table is None:
            gamma = self.pow(self._alpha_enc, (self.q - 1) // prime)
            m = math.isqrt(prime - 1) + 1
            *steps, last = self.powers(gamma, m + 1)
            baby = {z: j for j, z in enumerate(steps)}
            giant = self.pow(last, -1)
            times_giant = (_times(self.p, self.n, self.mul, giant) if m >= _GIANT_TABLE_M
                           else partial(self.mul, giant))
            table = (baby, times_giant, m, self.pow(self._alpha_enc, -cofactor))
            self._dlog_tables[prime] = table
        return table

    def subgroup(self, d: int) -> tuple[Element, list[Element]]:
        """Generator omega = alpha^{(q-1)/d} and [omega^0, ..., omega^{d-1}]."""
        if d < 1 or (self.q - 1) % d:
            raise NotADivisor(f"{d} does not divide q-1 = {self.q - 1}")
        omega = self.pow(self._alpha_enc, (self.q - 1) // d)
        return Element(self, omega), [Element(self, z) for z in self.powers(omega, d)]

    def powers(self, a: int, count: int) -> Iterator[int]:
        """a^0, a^1, ..., a^(count-1) on encodings, a running product."""
        return accumulate(repeat(a, count - 1), self.mul, initial=1)

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
        return self.element(enc)


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
    return Field(p, n, mod)


def _find_primitive(field: Field) -> int:
    q = field.q
    checks = [(q - 1) // prime for prime, _ in field._factors]
    # encodings below p are constants, of order dividing p - 1
    for enc in range(field.p if field.n > 1 else 1, q):
        if all(field.pow(enc, e) != 1 for e in checks):
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
    if n < 1:
        raise ParseError(f"bad field spec {text!r}: degree must be positive")
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
    base field to the smallest-encoding root of the base modulus in ext,
    found among the k conjugates of the first root on mu_{p^k-1}.

    Returns a callable Element -> Element.
    """
    if base.p != ext.p or ext.n % base.n:
        raise WrongFieldShape(
            f"{base!r} does not embed in {ext!r}: need same p and degree divisibility")
    if base.n == 1:
        return lambda x: ext.scalar(x.enc)
    add, mul = ext.add, ext.mul
    omega, y = ext.pow(ext._alpha_enc, (ext.q - 1) // (base.q - 1)), 1
    while True:   # the irreducible base modulus has all k roots in mu_{p^k-1}
        acc = 0
        for c in reversed(base.modulus):
            acc = add(mul(acc, y), c)
        if not acc:
            break
        y = mul(y, omega)
    root = Element(ext, min(ext.pow(y, ext.p**i) for i in range(base.n)))
    powers = [root**i for i in range(base.n)]

    def embed(x: Element) -> Element:
        acc = ext.zero()
        for c, w in zip(x.coeffs, powers):
            if c:
                acc = acc + ext.scalar(c) * w
        return acc

    return embed
