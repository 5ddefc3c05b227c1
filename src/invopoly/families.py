"""Explicit involution families over extension fields, plus subfield lifting.

Each family has a validator that reports every hypothesis as a named
pass/fail check, and a generator that refuses inadmissible parameters and
checks its output with the subgroup criterion alone (the reversal family
decides by h's roots on mu_{q+1}).  Families over F_{q^2} work on mu_{q+1};
the palindromic family works over F_{q^m} with coefficients from the base
subfield; the lifting construction turns an involution of a base field
into one of an extension, its criterion deciding whether the base map was.

Every family is one ``Family`` entry in ``FAMILIES`` at the end of this
module: its id, parameter help, parameter parsing, validator and
generator.  ``validate`` and the command line read only that registry, so
adding a family means adding one entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd
from typing import Callable

from .criterion import check_involution, confirm_involution, first_root
from .errors import (
    BaseNotInvolution,
    EvenQNoSolution,
    FieldTooLarge,
    HValueZero,
    Overflow,
    ParseError,
    PreconditionViolated,
    RSquareCondition,
    UnknownFamily,
    WrongFieldShape,
)
from .gf import Element, Field, make_field, subfield_embedding
from .polyring import DEFAULT_CAP, RhsForm, SparsePoly, parse_poly

GEOMETRIC_K_LIMIT = 1 << 12   # the geometric family builds k terms


@dataclass(frozen=True)
class ConditionCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class FamilySpec:
    family_id: str
    field: Field
    params: dict = dc_field(default_factory=dict)


@dataclass(frozen=True)
class ReversalOutcome:
    """The reversal family decides involution-ness outright: a root of h
    on mu_{q+1} is a definitive no, not an input error."""

    rhs: RhsForm
    involution: bool
    root: Element | None


def _gate(checks: list[ConditionCheck]) -> None:
    bad = [c for c in checks if not c.ok]
    if not bad:
        return
    root_only = [c for c in bad if c.name.startswith("h-nonzero")]
    if root_only and len(root_only) == len(bad):
        raise HValueZero(bad[0].detail)
    raise PreconditionViolated(
        "; ".join(f"{c.name}: {c.detail}" if c.detail else c.name for c in bad))


def _split_square(ext: Field) -> int:
    """Base q for a quadratic extension F_{q^2}."""
    if ext.n % 2:
        raise WrongFieldShape(f"{ext!r} is not a quadratic extension")
    return ext.p ** (ext.n // 2)


def _base_degree(base_q: int, p: int) -> int:
    j, t = 0, base_q
    while t > 1 and t % p == 0:
        t //= p
        j += 1
    if t != 1 or j == 0:
        raise WrongFieldShape(f"{base_q} is not a power of the characteristic {p}")
    return j


# -- conjugate-symmetric family over F_{q^2} --------------------------------

def omega_set(q: int, r: int) -> set[int]:
    """Admissible term positions for the conjugate-symmetric h: those
    0 <= i <= q with ((r+1)/(q-1) + i)(r-1) = 0 (mod q+1)."""
    if q > 2 and (r + 1) % (q - 1):
        raise PreconditionViolated(f"r = {r} is not -1 mod q-1 = {q - 1}")
    base = (r + 1) // (q - 1) if q > 2 else r + 1
    return {i for i in range(q + 1) if (base + i) * (r - 1) % (q + 1) == 0}


def _conj_h(ext: Field, q: int, coeffs: dict) -> SparsePoly:
    pairs = []
    for i, v in coeffs.items():
        v = ext.element(v)
        pairs.append((i % (q + 1), v))
        pairs.append((q * i % (q + 1), v**q))
    return SparsePoly.from_pairs(ext, pairs)


def _cond_conj_symmetric(ext: Field, r: int, coeffs: dict):
    """(checks, the form whose roots on mu_{q+1} they looked for, or None
    when an earlier check fails)."""
    checks = []
    try:
        q = _split_square(ext)
    except WrongFieldShape as exc:
        return [ConditionCheck("field-is-quadratic-extension", False, str(exc))], None
    checks.append(ConditionCheck("field-is-quadratic-extension", True, f"base order {q}"))
    r_ok = q == 2 or (r + 1) % (q - 1) == 0
    checks.append(ConditionCheck("r-is-minus-one-mod-q-minus-1", r_ok, f"r = {r}"))
    if not r_ok:
        return checks, None
    hyp = 2 * ((r * r - 1) // (q - 1)) % (q + 1) == 0
    checks.append(ConditionCheck("double-exponent-vanishes-mod-q-plus-1", hyp,
                                 f"2(r^2-1)/(q-1) mod {q + 1}"))
    omg = omega_set(q, r)
    stray = sorted(set(coeffs) - omg)
    checks.append(ConditionCheck("positions-admissible", not stray,
                                 f"outside positions {stray}" if stray else f"allowed {sorted(omg)}"))
    if stray or not hyp:
        return checks, None
    rhs = RhsForm(ext, r, q - 1, _conj_h(ext, q, coeffs))
    root = first_root(rhs)
    checks.append(ConditionCheck("h-nonzero-on-mu", root is None,
                                 f"h({root}) = 0" if root is not None else ""))
    return checks, rhs


def gen_conj_symmetric(ext: Field, r: int, coeffs: dict) -> RhsForm:
    """Involution x^r * h(x^{q-1}) on F_{q^2} from conjugate-closed h:
    each supplied term h_i x^i brings its partner h_i^q x^{qi}."""
    checks, rhs = _cond_conj_symmetric(ext, r, coeffs)
    _gate(checks)
    return confirm_involution(rhs, "conjugate-symmetric construction failed the criterion")


def gen_cor_qb(ext: Field, i: int, b) -> RhsForm:
    """Two-term special case h = b x^i + b^q x^{qi} with r = q^2 - q - 1;
    admissible exactly per the residue class of q and squareness of b."""
    checks = _cond_cor_qb(ext, i, b)
    _gate(checks)
    q = _split_square(ext)
    return gen_conj_symmetric(ext, q * q - q - 1, {i: ext.element(b)})


def _cond_cor_qb(ext: Field, i: int, b) -> list[ConditionCheck]:
    checks = []
    try:
        q = _split_square(ext)
    except WrongFieldShape as exc:
        return [ConditionCheck("field-is-quadratic-extension", False, str(exc))]
    checks.append(ConditionCheck("field-is-quadratic-extension", True, f"base order {q}"))
    if ext.p == 2:
        checks.append(ConditionCheck("q-odd", False, "even characteristic"))
        return checks
    checks.append(ConditionCheck("q-odd", True))
    checks.append(ConditionCheck("position-in-range", 1 <= i <= q, f"i = {i}"))
    b = ext.element(b)
    checks.append(ConditionCheck("b-nonzero", not b.is_zero))
    if b.is_zero:
        return checks
    is_square = b ** ((ext.q - 1) // 2) == ext.one()
    if q % 4 == 1:
        checks.append(ConditionCheck("residue-square-match", is_square,
                                     f"q = 1 mod 4 needs square b, b is "
                                     f"{'square' if is_square else 'non-square'}"))
    else:
        checks.append(ConditionCheck("residue-square-match", not is_square,
                                     f"q = 3 mod 4 needs non-square b, b is "
                                     f"{'square' if is_square else 'non-square'}"))
    return checks


# -- palindromic family over F_{q^m} ----------------------------------------

def _mirror_complete(ext: Field, coeffs: dict, partner):
    """Fill the coefficient vector from the given positions, each v at i also
    landing as w at j for (j, w) = partner(i, v); returns (vector, conflict
    position or None)."""
    full: dict[int, Element] = {}
    for i, v in coeffs.items():
        v = ext.element(v)
        for j, w in ((i, v), partner(i, v)):
            if j in full and full[j] != w:
                return full, j
            full[j] = w
    return full, None


def _cond_palindromic(ext: Field, base_q: int, d: int, r: int, coeffs: dict):
    """(checks, the form whose roots on mu_d they looked for, or None when
    an earlier check fails)."""
    checks = []
    try:
        j = _base_degree(base_q, ext.p)
    except WrongFieldShape as exc:
        return [ConditionCheck("base-field-shape", False, str(exc))], None
    if ext.n % j:
        return [ConditionCheck("base-field-shape", False,
                               f"degree {ext.n} not a multiple of {j}")], None
    m = ext.n // j
    checks.append(ConditionCheck("base-field-shape", True, f"q = {base_q}, m = {m}"))
    d_ok = d >= 1 and gcd(base_q - 1, m) % d == 0
    checks.append(ConditionCheck("d-divides-gcd", d_ok, f"gcd({base_q - 1}, {m}) vs d = {d}"))
    if not d_ok:
        return checks, None
    s = (ext.q - 1) // d
    r_ok = r >= 1 and ((r + 1) % s == 0 if s > 1 else True)
    checks.append(ConditionCheck("r-is-minus-one-mod-s", r_ok, f"r = {r}, s = {s}"))
    if not r_ok:
        return checks, None
    e = ((r * r - 1) // s) % d
    in_range = all(0 <= i < d for i in coeffs)
    checks.append(ConditionCheck("positions-in-range", in_range, f"d = {d}"))
    if not in_range:
        return checks, None
    full, conflict = _mirror_complete(ext, coeffs, lambda i, v: ((e - i) % d, v))
    checks.append(ConditionCheck("mirror-consistent", conflict is None,
                                 f"position {conflict} assigned twice" if conflict is not None else f"e = {e}"))
    if conflict is not None:
        return checks, None
    alien = [i for i, v in full.items() if v ** base_q != v]
    checks.append(ConditionCheck("coefficients-in-base-subfield", not alien,
                                 f"positions {sorted(alien)} outside order-{base_q} subfield" if alien else ""))
    if alien:
        return checks, None
    rhs = RhsForm(ext, r, s, SparsePoly(ext, full))
    root = first_root(rhs)
    checks.append(ConditionCheck("h-nonzero-on-mu", root is None,
                                 f"h({root}) = 0" if root is not None else ""))
    return checks, rhs


def gen_palindromic(ext: Field, base_q: int, d: int, r: int, coeffs: dict) -> RhsForm:
    """Involution x^r * h(x^s) on F_{q^m} from base-subfield coefficients
    mirrored around the pivot e = (r^2-1)/s mod d."""
    checks, rhs = _cond_palindromic(ext, base_q, d, r, coeffs)
    _gate(checks)
    return confirm_involution(rhs, "palindromic construction failed the criterion")


def _mdq1_args(ext: Field, a, b) -> tuple:
    """The palindromic arguments (q, d, r, coeffs) of cor-mdq1."""
    if ext.p != 2:
        raise WrongFieldShape("this family needs characteristic 2")
    for k in range(2, ext.n + 1):
        if k * (2**k - 1) == ext.n:
            q = 2**k
            return q, q - 1, (ext.q - 1) // (q - 1) - 1, {0: b, q - 3: b, q - 2: a}
    raise WrongFieldShape(
        f"degree {ext.n} is not k*(2^k - 1) for any k >= 2")


def gen_cor_mdq1(ext: Field, a, b) -> RhsForm:
    """h = a x^{q-2} + b x^{q-3} + b over F_{q^{q-1}}, q = 2^k, with
    r = s - 1: the palindromic family at m = d = q - 1."""
    return gen_palindromic(ext, *_mdq1_args(ext, a, b))


def _m4d4_args(ext: Field, a, b, c) -> tuple:
    """The palindromic arguments (q, d, r, coeffs) of cor-m4d4."""
    if ext.p != 3 or ext.n % 8:
        raise WrongFieldShape(f"need order 3^(8k), got {ext.p}^{ext.n}")
    return 3 ** (ext.n // 4), 4, ext.q - 2, {3: a, 2: b, 1: a, 0: c}


def _cond_palindromic_case(ext: Field, case_args, *values) -> list[ConditionCheck]:
    """Checks of a palindromic special case whose arguments come from
    case_args (_mdq1_args or _m4d4_args)."""
    try:
        args = case_args(ext, *values)
    except WrongFieldShape as exc:
        return [ConditionCheck("base-field-shape", False, str(exc))]
    return _cond_palindromic(ext, *args)[0]


def gen_cor_m4d4(ext: Field, a, b, c) -> RhsForm:
    """h = a x^3 + b x^2 + a x + c over F_{q^4}, q = 3^{2k}, with
    r = q^4 - 2: the palindromic family at m = d = 4."""
    return gen_palindromic(ext, *_m4d4_args(ext, a, b, c))


# -- reversal family over F_{q^2} -------------------------------------------

def _cond_reversal(ext: Field, r: int, deg: int, coeffs: dict):
    checks = []
    try:
        q = _split_square(ext)
    except WrongFieldShape as exc:
        return [ConditionCheck("field-is-quadratic-extension", False, str(exc))], None
    checks.append(ConditionCheck("field-is-quadratic-extension", True, f"base order {q}"))
    r_ok = q == 2 or (r + 1) % (q - 1) == 0
    checks.append(ConditionCheck("r-is-minus-one-mod-q-minus-1", r_ok, f"r = {r}"))
    deg_ok = deg >= 0 and (deg - (r - 1)) % (q + 1) == 0
    checks.append(ConditionCheck("degree-matches-r", deg_ok,
                                 f"deg = {deg} vs r-1 = {r - 1} mod {q + 1}"))
    in_range = all(0 <= i <= deg for i in coeffs)
    checks.append(ConditionCheck("positions-in-range", in_range, f"deg = {deg}"))
    if not (r_ok and deg_ok and in_range):
        return checks, None
    full, conflict = _mirror_complete(ext, coeffs, lambda i, v: (deg - i, v**q))
    checks.append(ConditionCheck("conjugate-mirror-consistent", conflict is None,
                                 f"position {conflict} assigned twice" if conflict is not None else ""))
    if conflict is not None:
        return checks, None
    a0 = full.get(0, ext.zero())
    checks.append(ConditionCheck("constant-term-nonzero", not a0.is_zero))
    if a0.is_zero:
        return checks, None
    return checks, SparsePoly(ext, full)


def gen_reversal(ext: Field, r: int, deg: int, coeffs: dict) -> ReversalOutcome:
    """f = x^r * h(x^{q-1}) with conjugate-mirrored h of degree matching
    r - 1 mod q + 1.  Involution exactly when h misses 0 on mu_{q+1}; a
    root is the returned counterexample, not an error."""
    checks, h = _cond_reversal(ext, r, deg, coeffs)
    _gate(checks)
    q = _split_square(ext)
    rhs = RhsForm(ext, r, q - 1, h)
    verdict = check_involution(rhs).verdict   # kept on the form; first_root reads its h values
    return ReversalOutcome(rhs, verdict, None if verdict else first_root(rhs))


def cor_exm_case_verdict(ext: Field, a) -> bool:
    """Residue-class test for f = a x^{q^2-3q+1} + a^q x^{q-2}."""
    q = _split_square(ext)
    a = ext.element(a)
    if ext.p == 2 or a.is_zero:
        return False
    minus_one = ext.scalar(-1)
    if q % 4 == 1:
        return a ** ((ext.q - 1) // 2) != minus_one
    if q % 8 == 3:
        return a ** ((ext.q - 1) // 4) != minus_one
    return a ** ((ext.q - 1) // 4) != ext.one()


def cor_exm_gcd_verdict(ext: Field, a) -> bool:
    """Equivalent root-avoidance test: (-a^{q-1})^{(q+1)/gcd(q+1, q-3)} != 1."""
    q = _split_square(ext)
    a = ext.element(a)
    if ext.p == 2 or a.is_zero:
        return False
    g = gcd(q + 1, q - 3)
    return (-(a ** (q - 1))) ** ((q + 1) // g) != ext.one()


def _cond_cor_exm(ext: Field, a) -> list[ConditionCheck]:
    try:
        q = _split_square(ext)
    except WrongFieldShape as exc:
        return [ConditionCheck("field-is-quadratic-extension", False, str(exc))]
    checks = [ConditionCheck("field-is-quadratic-extension", True, f"base order {q}")]
    if ext.p == 2:
        checks.append(ConditionCheck("admissible-a-exists", False,
                                     "no choice of a works in even characteristic"))
        return checks
    a = ext.element(a)
    checks.append(ConditionCheck("a-nonzero", not a.is_zero))
    if a.is_zero:
        return checks
    checks.append(ConditionCheck("residue-class-test", cor_exm_case_verdict(ext, a),
                                 f"q = {q} mod 8 is {q % 8}"))
    return checks


def gen_cor_exm(ext: Field, a) -> RhsForm:
    """f = a x^{q^2-3q+1} + a^q x^{q-2}, the reversal family with
    h = a x^{q-3} + a^q, admissible per the residue-class test."""
    q = _split_square(ext)
    if ext.p == 2:
        raise EvenQNoSolution("no choice of a works in even characteristic")
    a = ext.element(a)
    if a.is_zero:
        raise PreconditionViolated("a must be nonzero")
    if not cor_exm_case_verdict(ext, a):
        raise PreconditionViolated(f"a = {a} fails the residue-class test for q = {q}")
    h = SparsePoly.from_pairs(ext, [(q - 3, a), (0, a**q)])
    return confirm_involution(RhsForm(ext, q - 2, q - 1, h),
                              "admissible a produced a non-involution")


# -- geometric family over F_{q^m}, m even ----------------------------------

def _cond_geometric(ext: Field, base_q: int, d: int, m: int, k: int) -> list[ConditionCheck]:
    checks = []
    try:
        j = _base_degree(base_q, ext.p)
    except WrongFieldShape as exc:
        return [ConditionCheck("base-field-shape", False, str(exc))]
    shape_ok = m >= 2 and m % 2 == 0 and ext.n == j * m
    checks.append(ConditionCheck("base-field-shape", shape_ok,
                                 f"need field order {base_q}^{m} with m even, field is {ext.p}^{ext.n}"))
    if not shape_ok:
        return checks
    d_ok = d >= 1 and (base_q + 1) % d == 0
    checks.append(ConditionCheck("d-divides-q-plus-1", d_ok, f"q = {base_q}, d = {d}"))
    checks.append(ConditionCheck("k-positive", k >= 1, f"k = {k}"))
    if not (d_ok and k >= 1):
        return checks
    half = m // 2
    num = half * (base_q * base_q - 1)
    integral = num % (2 * d) == 0
    checks.append(ConditionCheck("inner-quotient-integral", integral,
                                 f"(m/2)(q^2-1)/(2d) = {num}/{2 * d}"))
    if not integral:
        return checks
    big = num // (2 * d) - 1
    c1 = (k - 1) * gcd(k + 1, big) % d == 0
    checks.append(ConditionCheck("degree-congruence", c1,
                                 f"(k-1)*gcd(k+1, {big}) mod {d}"))
    checks.append(ConditionCheck("k-squared-unit", (k * k - 1) % ext.p == 0,
                                 f"k^2 mod {ext.p}"))
    return checks


def gen_geometric(ext: Field, base_q: int, d: int, m: int, k: int) -> SparsePoly:
    """f = x(1 + x^s + ... + x^{(k-1)s}) on the even extension F_{q^m},
    with s = (q^m - 1)/d and q = -1 mod d."""
    if k > GEOMETRIC_K_LIMIT:
        raise Overflow(f"k = {k} exceeds the geometric family's limit of {GEOMETRIC_K_LIMIT}")
    checks = _cond_geometric(ext, base_q, d, m, k)
    _gate(checks)
    s = (ext.q - 1) // d
    one = ext.one()
    f = SparsePoly.from_pairs(ext, [(1 + i * s, one) for i in range(k)])
    h = SparsePoly.from_pairs(ext, [(i, one) for i in range(k)])
    confirm_involution(RhsForm(ext, 1, s, h), "geometric construction failed the criterion")
    return f


# -- subfield lifting ---------------------------------------------------------

def _cond_lift(ext: Field, base_q: int, m: int, r: int) -> list[ConditionCheck]:
    try:
        j = _base_degree(base_q, ext.p)
    except WrongFieldShape as exc:
        return [ConditionCheck("base-field-shape", False, str(exc))]
    shape_ok = ext.n == j * m
    checks = [ConditionCheck("base-field-shape", shape_ok,
                             f"field degree {ext.n} vs {j}*{m}")]
    if not shape_ok:
        return checks
    checks.append(ConditionCheck("m-coprime-to-group-order", gcd(base_q - 1, m) == 1,
                                 f"gcd({base_q - 1}, {m})"))
    s = (base_q**m - 1) // (base_q - 1)
    checks.append(ConditionCheck("r-squared-is-one", (r * r - 1) % s == 0,
                                 f"r = {r}, s = {s}"))
    return checks


def lift_involution(base: Field, m: int, r: int, h: SparsePoly,
                    ext: Field | None = None) -> RhsForm:
    """Lift g = x^r * h(x)^m, an involution of the base field, to the
    involution x^r * h(x^{(q^m-1)/(q-1)}) of the degree-m extension.  The
    lift's criterion decides: on mu_{q-1} = F_q^*, s = m (mod q-1), so its
    phi to the m-th power is g's phi, and gcd(m, q-1) = 1."""
    if h.field != base:
        raise WrongFieldShape("h must live in the base field")
    if m < 1 or gcd(base.q - 1, m) != 1:
        raise PreconditionViolated(f"gcd(q-1, m) = {gcd(base.q - 1, m)} must be 1")
    if r < 1:
        raise PreconditionViolated(f"r = {r} must be positive")
    s = (base.q**m - 1) // (base.q - 1)
    if (r * r - 1) % s:
        raise RSquareCondition(f"r = {r}: r^2 - 1 not divisible by s = {s}")
    if base.q - 1 > DEFAULT_CAP:   # before the extension is built or embedded
        raise FieldTooLarge(f"subgroup walk over d = {base.q - 1} exceeds cap {DEFAULT_CAP}")
    if ext is None:
        ext = make_field(base.p, base.n * m)
    elif ext.p != base.p or ext.n != base.n * m:
        raise WrongFieldShape(f"{ext!r} is not the degree-{m} extension of {base!r}")
    embed = subfield_embedding(base, ext)
    lifted = SparsePoly.from_pairs(ext, ((e, embed(c)) for e, c in h.terms.items()))
    rhs = RhsForm(ext, r, s, lifted)
    report = check_involution(rhs)
    if not report.verdict:
        raise BaseNotInvolution(f"x^{r} * h(x)^{m} is not an involution of the base field",
                                witness=report.failing_z)
    return rhs


# -- the family registry ----------------------------------------------------

def _int_param(params: dict, name: str) -> int:
    try:
        return int(params[name])
    except ValueError:
        raise ParseError(f"parameter {name} must be an integer, got {params[name]!r}") from None


def _coeff_map(params: dict, prefix: str) -> dict:
    out = {}
    for key, val in params.items():
        if key.startswith(prefix) and key[len(prefix):].isdigit():
            out[int(key[len(prefix):])] = val
    return out


def _build_lift(ext: Field, base_q: int, m: int, r: int, h: str | None) -> RhsForm:
    if h is None:
        raise ParseError("lift needs h=<poly over the base field>")
    if not _cond_lift(ext, base_q, m, r)[0].ok:
        raise WrongFieldShape(
            f"field {ext.spec_string()} is not a degree-{m} extension of F_{base_q}")
    base = make_field(ext.p, ext.n // m)
    return lift_involution(base, m, r, parse_poly(base, h), ext)


@dataclass(frozen=True)
class Family:
    """One named family.  Its key=value parameters become positional
    arguments in this order: ``ints`` as integers, ``elements`` and
    ``optional`` as text (None when an optional one is absent), then the
    ``coeffs``<i> entries as a position -> text map.  ``check`` and
    ``build`` take the field followed by those arguments; ``build`` returns
    an RhsForm, or a SparsePoly for a family without one."""

    id: str
    params: str
    check: Callable[..., list[ConditionCheck]]
    build: Callable[..., RhsForm | SparsePoly]
    ints: tuple[str, ...] = ()
    elements: tuple[str, ...] = ()
    optional: tuple[str, ...] = ()
    coeffs: str | None = None

    def args(self, params: dict) -> list:
        missing = [k for k in self.ints + self.elements if k not in params]
        if missing:
            raise ParseError(f"missing parameters: {', '.join(missing)}")
        args = [_int_param(params, k) for k in self.ints]
        args += [params[k] for k in self.elements]
        args += [params.get(k) for k in self.optional]
        if self.coeffs:
            args.append(_coeff_map(params, self.coeffs))
        return args

    def generate(self, field: Field, params: dict) -> tuple[RhsForm | None, SparsePoly]:
        """The index form (None if the family has none) and the polynomial."""
        out = self.build(field, *self.args(params))
        if isinstance(out, SparsePoly):
            return None, out
        return out, out.expand()


# The builders call gen_* by module-global name, so that rebinding one (as
# a call tracer does) reaches the registry too.
FAMILIES = {fam.id: fam for fam in (
    Family("thm-conj-symmetric", "r=<int>, h<i>=<element> for admissible positions i",
           lambda *a: _cond_conj_symmetric(*a)[0], lambda *a: gen_conj_symmetric(*a),
           ints=("r",), coeffs="h"),
    Family("cor-qb", "i=<1..q>, b=<element>",
           _cond_cor_qb, lambda *a: gen_cor_qb(*a), ints=("i",), elements=("b",)),
    Family("thm-palindromic", "q=<base order>, d=<int>, r=<int>, h<i>=<element>",
           lambda *a: _cond_palindromic(*a)[0], lambda *a: gen_palindromic(*a),
           ints=("q", "d", "r"), coeffs="h"),
    Family("cor-mdq1", "a=<element>, b=<element> (both in the base subfield)",
           lambda f, *v: _cond_palindromic_case(f, _mdq1_args, *v),
           lambda *a: gen_cor_mdq1(*a), elements=("a", "b")),
    Family("cor-m4d4", "a=<element>, b=<element>, c=<element> (all in the base subfield)",
           lambda f, *v: _cond_palindromic_case(f, _m4d4_args, *v),
           lambda *a: gen_cor_m4d4(*a), elements=("a", "b", "c")),
    Family("thm-reversal", "r=<int>, d=<degree>, a<i>=<element>",
           lambda *a: _cond_reversal(*a)[0], lambda *a: gen_reversal(*a).rhs,
           ints=("r", "d"), coeffs="a"),
    Family("cor-exm", "a=<element>", _cond_cor_exm, lambda *a: gen_cor_exm(*a),
           elements=("a",)),
    Family("thm-geometric", "q=<base order>, d=<int>, m=<even extension degree>, k=<int>",
           _cond_geometric, lambda *a: gen_geometric(*a), ints=("q", "d", "m", "k")),
    Family("lift", "q=<base order>, m=<int>, r=<int>, h=<poly over the base field>",
           lambda f, q, m, r, h: _cond_lift(f, q, m, r), _build_lift,
           ints=("q", "m", "r"), optional=("h",)),
)}
FAMILY_IDS = tuple(FAMILIES)


def validate(spec: FamilySpec) -> list[ConditionCheck]:
    """Evaluate every hypothesis of the named family on the parameters."""
    fam = FAMILIES.get(spec.family_id)
    if fam is None:
        raise UnknownFamily(f"no family named {spec.family_id!r}")
    return fam.check(spec.field, *fam.args(spec.params))
