"""Field arithmetic against independent integer-level oracles."""

from __future__ import annotations

import math
import pickle
import random
import time
from array import array
from functools import lru_cache, partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invopoly import gf
from invopoly.errors import (
    DivisionByZero,
    NotADivisor,
    NotIrreducible,
    NotPrime,
    Overflow,
    ParseError,
    WrongFieldShape,
)
from invopoly.gf import (
    divisors,
    factorize,
    make_field,
    parse_field,
    subfield_embedding,
)
from invopoly.oracle import sweep
from invopoly.polyring import SparsePoly, parse_poly
from conftest import table_free_fields

# Deterministic modulus choice (lexicographically smallest monic irreducible)
# and the smallest-encoding primitive element, frozen per field.
FROZEN = {
    (2, 1): ((0, 1), 1),
    (3, 1): ((0, 1), 2),
    (5, 1): ((0, 1), 2),
    (7, 1): ((0, 1), 3),
    (11, 1): ((0, 1), 2),
    (13, 1): ((0, 1), 2),
    (2, 2): ((1, 1, 1), 2),
    (2, 3): ((1, 0, 1, 1), 2),
    (2, 4): ((1, 0, 0, 1, 1), 2),
    (2, 6): ((1, 0, 0, 0, 0, 1, 1), 2),
    (2, 8): ((1, 0, 0, 0, 1, 1, 0, 1, 1), 6),
    (3, 2): ((1, 0, 1), 4),
    (3, 4): ((1, 0, 1, 1, 1), 10),
    (3, 8): ((1, 0, 0, 0, 0, 1, 1, 0, 1), 4),
    (5, 2): ((1, 1, 1), 7),
    (11, 2): ((1, 0, 1), 15),
}


def test_frozen_moduli_and_generators():
    for (p, n), (modulus, alpha_enc) in FROZEN.items():
        field = make_field(p, n)
        assert field.modulus == modulus, (p, n, field.modulus)
        assert field.alpha.enc == alpha_enc, (p, n, field.alpha.enc)


def test_integer_arithmetic_utilities():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_prime_field_matches_integer_mod():
    field = make_field(13)
    rng = random.Random(101)
    for _ in range(300):
        a, b = rng.randrange(13), rng.randrange(13)
        x, y = field.element(a), field.element(b)
        assert (x + y).enc == (a + b) % 13
        assert (x - y).enc == (a - b) % 13
        assert (x * y).enc == (a * b) % 13
        e = rng.randrange(0, 30)
        if a or e:
            assert (x**e).enc == pow(a, e, 13)
    for a in range(1, 13):
        assert (field.element(a) * field.element(a).inverse()).enc == 1


def test_field_axioms_random_triples(f64, f9):
    rng = random.Random(7)
    for field in (f64, f9):
        for _ in range(200):
            x, y, z = (field.element(rng.randrange(field.q)) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x and x * y == y * x


def test_frobenius_is_additive():
    field = make_field(3, 3)
    rng = random.Random(11)
    for _ in range(100):
        x = field.element(rng.randrange(27))
        y = field.element(rng.randrange(27))
        assert (x + y) ** 3 == x**3 + y**3


def test_every_nonzero_element_invertible(f16):
    for enc in range(1, 16):
        x = f16.element(enc)
        assert x * x.inverse() == f16.one()
    with pytest.raises(DivisionByZero):
        f16.zero().inverse()
    with pytest.raises(DivisionByZero):
        f16.one() / f16.zero()
    with pytest.raises(DivisionByZero):
        f16.zero() ** (-1)


def test_alpha_has_full_order(f64, f13):
    for field in (f64, f13):
        q = field.q
        assert field.alpha ** (q - 1) == field.one()
        for rho, _ in factorize(q - 1):
            assert field.alpha ** ((q - 1) // rho) != field.one()


def test_power_laws(f25):
    rng = random.Random(3)
    for _ in range(100):
        x = f25.element(rng.randrange(1, 25))
        a, b = rng.randrange(-20, 40), rng.randrange(-20, 40)
        assert x**a * x**b == x ** (a + b)
        assert (x**a) ** b == x ** (a * b)
    assert f25.zero() ** 0 == f25.one()
    assert f25.zero() ** 5 == f25.zero()


def test_discrete_log_exhaustive(f64):
    for enc in range(1, 64):
        x = f64.element(enc)
        assert f64.pow_alpha(f64.discrete_log(x)) == x


def test_discrete_log_bsgs_above_table_limit():
    # 2^17 elements exceeds the dense-table limit, forcing baby-step giant-step
    field = make_field(2, 17)
    assert field._log is None
    x = field.alpha ** 12345
    assert field.discrete_log(x) == 12345
    assert field.discrete_log(field.one()) == 0


@pytest.mark.parametrize("p, n", [(2, 17), (2, 18), (3, 12)])
def test_discrete_log_pohlig_hellman_above_table_limit(p, n):
    # q - 1 is prime for 2^17 (a single baby-step giant-step search); 3^3
    # divides it for 2^18 and 2^4 for 3^12 (several base-l digits per prime)
    field = make_field(p, n)
    assert field._log is None
    rng = random.Random(p * 100 + n)
    sample = [field.element(rng.randrange(1, field.q)) for _ in range(40)]
    sample += [field.one(), field.alpha, -field.one(), field.alpha ** (field.q - 2)]
    for x in sample:
        k = field.discrete_log(x)
        assert 0 <= k < field.q - 1
        assert field.alpha ** k == x
    # one table of ceil(sqrt(l)) baby steps per prime l of q - 1, kept
    tables = dict(field._dlog_tables)
    assert sorted(tables) == [prime for prime, _ in factorize(field.q - 1)]
    for prime, (baby, _, m, _) in tables.items():
        assert m == len(baby) == math.ceil(math.sqrt(prime))
    for x in sample:
        field.discrete_log(x)
    assert all(field._dlog_tables[prime] is table for prime, table in tables.items())


@pytest.mark.parametrize("p, n", [(2, 17), (5, 7), (3, 11)])
def test_discrete_log_through_a_giant_step_table(p, n):
    # one prime l of q - 1 is large (131071, 19531 and 3851), and its
    # searches multiply by the giant step through a chunk table
    field = make_field(p, n)
    rng = random.Random(p * 100 + n)
    for _ in range(200):
        x = field.element(rng.randrange(1, field.q))
        assert field.alpha ** field.discrete_log(x) == x
    prime = factorize(field.q - 1)[-1][0]
    _, times_giant, m, _ = field._dlog_tables[prime]
    assert m >= gf._GIANT_TABLE_M
    gamma = field.pow(field.alpha.enc, (field.q - 1) // prime)
    giant = field.pow(gamma, -m)
    for z in [1, gamma] + [rng.randrange(1, field.q) for _ in range(20)]:
        assert times_giant(z) == field.mul(z, giant)


def test_table_free_arithmetic_matches_tables(table_free):
    for slow in table_free:
        fast = make_field(slow.p, slow.n)
        assert slow._log is None and fast._log is not None
        assert slow == fast and slow.alpha == fast.alpha
        for a in range(fast.q):
            x, y = slow.element(a), fast.element(a)
            assert -x == -y
            for e in (0, 1, 2, 7, fast.q - 2, fast.q, 3 * fast.q + 5, -1, -4):
                if a or e >= 0:
                    assert x**e == y**e
            if a:
                assert x.inverse() == y.inverse()
                assert slow.discrete_log(x) == fast.discrete_log(y)
            for b in range(fast.q):
                assert x * slow.element(b) == y * fast.element(b)
                assert x + slow.element(b) == y + fast.element(b)


def _exhaust_times(p, n, mul):
    q = p**n
    for c in range(q):
        times = gf._times(p, n, mul, c)
        assert [times(a) for a in range(q)] == [mul(a, c) for a in range(q)], (p, n, c)


@pytest.mark.parametrize("p, n", [(13, 1), (2, 2), (3, 2), (2, 6), (2, 8), (3, 4), (5, 3), (7, 3)])
def test_times_matches_kernel_mul_for_every_pair(p, n):
    # the chunk-table multiply by a fixed c against the general kernel
    # multiply, for every a and every c
    field = make_field(p, n)
    _exhaust_times(p, n, gf._kernel(p, n, field.modulus)[1])


def test_times_matches_table_free_mul(table_free):
    for field in table_free:
        _exhaust_times(field.p, field.n, field.mul)


@pytest.mark.parametrize("p, n", [(2, 17), (3, 11), (5, 7), (7, 6),
                                  # past the two-chunk fast paths: three chunks
                                  # (2^25, 67^3) and four digit groups (3^14)
                                  (2, 25), (67, 3), (3, 14)])
def test_times_matches_kernel_mul_above_table_limit(p, n):
    field = make_field(p, n)
    assert field._log is None   # field.mul multiplies without tables
    rng = random.Random(p * 100 + n)
    sample = [0, 1, field.q - 1] + [rng.randrange(field.q) for _ in range(2000)]
    alpha = field.alpha.enc
    for c in (1, p - 1, alpha, field.pow(alpha, rng.randrange(2, field.q - 1))):
        times = gf._times(p, n, field.mul, c)
        assert [times(a) for a in sample] == [field.mul(a, c) for a in sample], c


def _square_and_multiply(mul, a, e):
    r = 1
    while e:
        if e & 1:
            r = mul(r, a)
        a = mul(a, a)
        e >>= 1
    return r


@pytest.mark.parametrize("p, n", [(2, 17), (2, 18), (2, 20), (3, 11), (3, 12), (5, 7), (7, 6),
                                  (67, 3), (2, 25), (3, 14)])
def test_pow_by_digits_matches_square_and_multiply(p, n):
    # above TABLE_LIMIT pow walks the base-p digits of e through the
    # Frobenius table; the reference multiplies by field.mul alone, so it is
    # independent of that walk
    field = make_field(p, n)
    assert field._log is None
    q, rng = field.q, random.Random(p * 1000 + n)
    pairs = [(rng.randrange(1, q), rng.randrange(q - 1)) for _ in range(200)]
    edges = (0, 1, p, p**2, p ** (n // 2), p ** (n - 1), q - 2)
    pairs += [(a, e) for a in (1, field.alpha.enc, q - 1, rng.randrange(2, q)) for e in edges]
    for a, e in pairs:
        assert field.pow(a, e) == _square_and_multiply(field.mul, a, e), (a, e)


def test_frobenius_table_matches_kernel_pow(table_free):
    for field in table_free:
        if field.n == 1:
            continue
        p, q = field.p, field.q
        _, mul, pow_ = gf._kernel(p, field.n, field.modulus)
        frob = gf._frobenius(p, field.n, mul, pow_)
        expected = [pow_(a, p) for a in range(q)]
        assert [frob(a) for a in range(q)] == expected
        assert [field.pow(a, p) for a in range(1, q)] == expected[1:]


@pytest.fixture(scope="module")
def digit_pow_fields():
    return [make_field(2, 18), make_field(3, 11)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_pow_by_digits_obeys_power_laws(digit_pow_fields, data):
    field = data.draw(st.sampled_from(digit_pow_fields))
    qm1 = field.q - 1
    a = data.draw(st.integers(1, qm1))
    e1, e2 = data.draw(st.integers(0, qm1 - 1)), data.draw(st.integers(0, qm1 - 1))
    assert field.pow(a, e1 + e2) == field.mul(field.pow(a, e1), field.pow(a, e2))
    assert field.pow(field.pow(a, e1), e2) == field.pow(a, e1 * e2 % qm1)


# -- the product-and-fold multiply above TABLE_LIMIT ---------------------------

def _schoolbook_mul(field, a, b):
    """a * b on encodings, a coefficient list at a time: the reference."""
    p, n, modulus = field.p, field.n, field.modulus
    prod = [0] * (2 * n - 1)
    for i, x in enumerate(gf._digits(a, p, n)):
        for j, y in enumerate(gf._digits(b, p, n)):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):   # x^k = x^(k-n) * (x^n - modulus)
        c = prod[k] % p
        for j in range(n):
            prod[k - n + j] -= c * modulus[j]
    return sum(c % p * p**i for i, c in enumerate(prod[:n]))


# Kronecker lanes (p = 3, 5 and 7^6), the 4-bit comb with two and three
# fold chunks (2^25 and up), and 7^7, past byte lanes, which keeps the loop
PRODUCT_FOLD_SHAPES = [(3, 11), (3, 12), (3, 14), (5, 7), (5, 8), (7, 6), (7, 7),
                       (2, 17), (2, 18), (2, 20), (2, 24), (2, 30)]


@pytest.fixture(scope="module")
def product_fold_fields():
    return [make_field(p, n) for p, n in PRODUCT_FOLD_SHAPES]


def test_product_fold_serves_byte_lanes_and_characteristic_2(product_fold_fields):
    for field in product_fold_fields:
        p, n = field.p, field.n
        kind = field.mul.__qualname__.split(".")[0]
        assert kind == ("_odd_extension_kernel" if (p, n) == (7, 7) else "_product_fold"), (p, n)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_product_fold_matches_the_loops(product_fold_fields, data):
    field = data.draw(st.sampled_from(product_fold_fields))
    p, n, q = field.p, field.n, field.q
    loop = gf._kernel(p, n, field.modulus)[1]
    operand = st.one_of(st.sampled_from([0, 1, p, p ** (n - 1), q - 1]), st.integers(0, q - 1))
    a, b = data.draw(operand), data.draw(operand)
    assert field.mul(a, b) == loop(a, b) == _schoolbook_mul(field, a, b)
    if a:
        e = data.draw(st.one_of(st.sampled_from([2, p, q - 2]), st.integers(2, q - 2)))
        assert field.pow(a, e) == _square_and_multiply(partial(_schoolbook_mul, field), a, e)


@pytest.mark.parametrize("p, n", [(3, 12), (2, 20)])
def test_discrete_log_round_trips_through_the_product_fold(p, n):
    field = make_field(p, n)
    rng = random.Random(p * 10 + n)
    for x in [1, p, field.q - 1] + [rng.randrange(1, field.q) for _ in range(30)]:
        k = field.discrete_log(field.element(x))
        assert field.pow(field.alpha.enc, k) == x
        assert _square_and_multiply(partial(_schoolbook_mul, field), field.alpha.enc, k) == x


def test_primitive_search_starts_past_the_constants():
    # encodings below p are constants of order dividing p - 1; a field with
    # p near sqrt(2^31) once tried all 46,340 of them
    start = time.perf_counter()
    field = make_field(46337, 2)
    assert field.alpha.enc == 46341
    assert time.perf_counter() - start < 0.5


# -- lanes: the only code that adds base-p digits ------------------------------

def _digit_add(p, a, b):
    """a + b on encodings, one base-p digit at a time: the reference for lanes."""
    r, place = 0, 1
    while a or b:
        a, x = divmod(a, p)
        b, y = divmod(b, p)
        r += (x + y) % p * place
        place *= p
    return r


def _lane_groups(p, n, w):
    """How many lookups reduce makes: up to four groups of g lanes; past
    four, "bytes" for byte lanes (reduced in C) and 0 for the rest (reduced
    by % p lane by lane)."""
    g = max(1, min(gf._LOOKUP_BITS, (p**n).bit_length()) // w)
    groups = -(-n // g)
    if w > gf._LOOKUP_BITS or groups > 4:
        return "bytes" if w == 8 and p <= 36 else 0
    return groups


@pytest.fixture(scope="module")
def lane_fields():
    shapes = [(3, 5), (3, 8), (3, 11), (5, 7), (7, 6), (3, 14), (4099, 2)]
    return [make_field(p, n) for p, n in shapes] + [
        f for f in table_free_fields() if f.n > 1 and f.p > 2]


# terms per sum: w = bitlen(terms*(p-1)) takes reduce at 3^8 through 2, 3
# and 4 groups of lanes, 8 lanes one at a time, byte lanes and past the
# lookup bound (13-bit lanes)
LANE_TERMS = [2, 3, 4, 8, 32, 64, 2048]


def test_lane_terms_cover_every_reduce_shape():
    shapes = [_lane_groups(3, 8, (t * 2).bit_length()) for t in LANE_TERMS]
    assert shapes == [2, 2, 3, 4, 0, "bytes", 0]
    assert _lane_groups(4099, 2, (2 * 4098).bit_length()) == 0   # p > 2^11: always wide


@pytest.mark.parametrize("terms", LANE_TERMS)
@settings(max_examples=20, derandomize=True, deadline=None)
@given(data=st.data())
def test_lanes_add_like_digits(lane_fields, terms, data):
    field = data.draw(st.sampled_from(lane_fields))
    p, n, q = field.p, field.n, field.q
    rng = data.draw(st.randoms(use_true_random=False))
    w = (terms * (p - 1)).bit_length()
    spread, reduce, reduce_sums, _ = gf._lanes(p, n, w)
    sums, expected = [], []
    for _ in range(3):
        # up to 8 drawn terms, the rest q - 1 (every digit p - 1, the widest lanes)
        encs = [rng.choice((0, q - 1, rng.randrange(q))) for _ in range(min(terms, 8))]
        for a in encs:
            assert spread(a) == sum(c << w * i for i, c in enumerate(gf._digits(a, p, n)))
        rest = terms - len(encs)
        columns = zip(*(gf._digits(a, p, n) for a in encs))   # digit i of every term
        sums.append(sum(map(spread, encs)) + rest * spread(q - 1))
        expected.append(sum((sum(col) + rest * (p - 1)) % p * p**i
                            for i, col in enumerate(columns)))
    assert [reduce(s) for s in sums] == expected
    assert reduce_sums(sums) == expected
    a, b = rng.randrange(q), rng.randrange(q)
    assert field.add(a, b) == _digit_add(p, a, b)
    assert field.add(a, 0) == a and field.add(a, field.neg(a)) == 0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(data=st.data())
def test_lane_linear_maps_match_the_kernel(lane_fields, data):
    field = data.draw(st.sampled_from(lane_fields))
    p, n, q = field.p, field.n, field.q
    _, mul, pow_ = gf._kernel(p, n, field.modulus)
    c = data.draw(st.integers(1, q - 1))
    rng = data.draw(st.randoms(use_true_random=False))
    sample = [0, 1, q - 1] + [rng.randrange(q) for _ in range(50)]
    times = gf._times(p, n, mul, c)
    assert [times(a) for a in sample] == [mul(a, c) for a in sample]
    frob = gf._frobenius(p, n, mul, pow_)
    assert [frob(a) for a in sample] == [pow_(a, p) if a else 0 for a in sample]


def test_first_add_past_the_lookup_bound_is_cheap():
    # p > 2^11: lanes wider than a lookup table, reduced by % p
    for p in (4099, 46337):
        add = make_field(p, 2).add
        start = time.perf_counter()
        assert add(p + 3, (p - 1) * p + p - 2) == 1 == _digit_add(p, p + 3, (p - 1) * p + p - 2)
        assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("p, n", [(2, 8), (2, 12), (3, 5), (3, 8), (5, 4), (7, 3), (13, 1)])
def test_tables_match_a_kernel_walk(p, n):
    field = make_field(p, n)
    mul = gf._kernel(p, n, field.modulus)[1]
    exp, x = [], 1
    for _ in range(field.q - 1):
        exp.append(x)
        x = mul(x, field.alpha.enc)
    assert x == 1 and field._exp == exp
    log = [-1] * field.q
    for k, x in enumerate(exp):
        log[x] = k
    assert field._log == log
    # the add of a table-backed field is the digit-wise sum, 1 + alpha^k
    assert [field.add(1, x) for x in exp] == [_digit_add(p, 1, x) for x in exp]


@pytest.mark.parametrize("p, n", [(2, 16), (3, 10), (7, 5)])
def test_the_compact_lift_is_built_on_first_use_and_kept(p, n):
    # make_field builds the exp/log lists and no array beside them, so set-up
    # keeps the objects it kept; the first encoding sum builds the array
    field = make_field(p, n)
    assert field._words is None and isinstance(field._exp, list)
    lift = field.lifted(1)[0]
    assert isinstance(lift, array) and lift.typecode == "I"
    assert field.lifted(1)[0] is lift
    assert len(lift) == len(field._exp) and all(a == b for a, b in zip(lift, field._exp))
    # XOR sums of several terms read the same array; odd lanes are no encodings
    assert (field.lifted(3)[0] is lift) == (p == 2)


def test_tables_above_the_table_limit_are_built_by_the_first_sweep():
    # make_field builds nothing above TABLE_LIMIT; the first whole-field
    # pass builds exp/log as arrays of 4 bytes per entry, which encoding
    # sums read as they are, and from then on field arithmetic and
    # discrete logs are lookups that agree with the table-free field
    field, reference = make_field(65537), make_field(65537)
    assert field._exp is field._log is field._words is None
    assert not sweep(parse_poly(field, "30292*x^3")).is_involution
    exp, log = field._exp, field.log_table
    assert (exp.typecode, exp.itemsize, log.typecode, log.itemsize) == ("I", 4, "i", 4)
    assert (len(exp), len(log)) == (field.q - 1, field.q)
    assert field.lifted(1)[0] is exp is field.alpha_powers()
    rng = random.Random(65537)
    sample = [1, field.alpha.enc, field.q - 1] + [rng.randrange(1, field.q) for _ in range(40)]
    for a, b in zip(sample, reversed(sample)):
        assert field.mul(a, b) == a * b % field.q and field.pow(a, b) == pow(a, b, field.q)
        assert field.discrete_log(field.element(a)) == reference.discrete_log(reference.element(a))
    assert not field._dlog_tables and reference._log is None   # Pohlig-Hellman ran only there
    # below 2^14 powers a list stays faster, and no array is made
    small = make_field(2, 12)
    assert small.lifted(2)[0] is small._exp is small._words


def test_subgroup_structure(f7, f64):
    omega, mu = f7.subgroup(3)
    assert sorted(z.enc for z in mu) == [1, 2, 4]
    assert omega ** 3 == f7.one() and omega != f7.one()
    with pytest.raises(NotADivisor):
        f7.subgroup(5)
    omega64, mu64 = f64.subgroup(3)
    assert len(mu64) == 3 and all((z**3) == f64.one() for z in mu64)
    assert omega64 == f64.pow_alpha(21)


def test_element_str_and_parse(f64, f7, f25):
    assert str(f64.zero()) == "0"
    assert str(f64.pow_alpha(5)) == "a^5"
    assert str(f7.element(4)) == "4"
    for text in ("a^13", "0", "a^0"):
        assert str(f64.parse_element(text)) == text
    assert f7.parse_element("6").enc == 6
    with pytest.raises(ParseError):
        f64.parse_element("b^2")
    with pytest.raises(ParseError):
        f7.parse_element("")
    # coefficient vectors, constant term first
    assert f25.parse_element("1,2") == f25.element((1, 2))
    assert f25.parse_element(" 0,1 ").enc == 5
    for text in ("1,2,0", "1,", "1,x"):
        with pytest.raises(ParseError):
            f25.parse_element(text)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_element_text_round_trips(text_fields, data):
    field = data.draw(st.sampled_from(text_fields))
    x = field.element(data.draw(st.integers(0, field.q - 1)))
    assert field.parse_element(str(x)) == x


def test_make_field_errors():
    with pytest.raises(NotPrime):
        make_field(6)
    with pytest.raises(NotIrreducible):
        make_field(2, 2, (1, 0, 1))  # x^2 + 1 = (x+1)^2 over F_2
    with pytest.raises(Overflow):
        make_field(2, 40)
    with pytest.raises(ValueError):
        make_field(2, 0)


def test_parse_field_spec_strings(f64, f9):
    assert parse_field("2^6") == f64
    assert parse_field(f64.spec_string()) == f64
    assert parse_field("9") == f9
    assert parse_field("3^2") == f9
    assert parse_field("27").q == 27
    assert parse_field("7").q == 7
    with pytest.raises(ParseError):
        parse_field("abc")
    with pytest.raises(NotPrime):
        parse_field("12")  # 12 = 2^2 * 3 is not a prime power


@lru_cache(maxsize=None)
def _text_field(p, n):
    return make_field(p, n)


# every field over a prime below 80 with q <= 5000
TEXT_SHAPES = [(p, n) for p in range(2, 80) if factorize(p) == [(p, 1)]
               for n in range(1, 13) if p**n <= 5000]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(shape=st.sampled_from(TEXT_SHAPES), x=st.integers(min_value=0),
       pairs=st.lists(st.tuples(st.integers(0, 10**4), st.integers(min_value=0)), max_size=4))
@example(shape=(2, 6), x=5, pairs=[(3, 1), (0, 7)])   # "2^6" and its spec string
@example(shape=(3, 2), x=8, pairs=[(1, 2)])           # "9" and "3^2"
@example(shape=(3, 3), x=26, pairs=[(2, 13), (1, 1)])  # "27"
@example(shape=(7, 1), x=6, pairs=[(5, 2), (3, 3), (1, 3)])   # "7"
def test_text_forms_round_trip(shape, x, pairs):
    p, n = shape
    field = _text_field(p, n)
    for text in (field.spec_string(), f"{p}^{n}", str(field.q)):
        assert parse_field(text) == field
    e = field.element(x % field.q)
    assert field.parse_element(str(e)) == e
    g = SparsePoly.from_pairs(field, [(k, field.element(c % field.q)) for k, c in pairs])
    assert parse_poly(field, str(g)) == g


@pytest.mark.parametrize("spec", [
    "7^300000000",           # p**n alone would take seconds
    "1000000016000000063",   # two ~1e9 prime factors: trial division is slow
])
def test_oversized_field_spec_rejected_fast(spec):
    start = time.perf_counter()
    with pytest.raises(Overflow):
        parse_field(spec)
    assert time.perf_counter() - start < 0.5


def test_custom_modulus_accepted():
    # x^2 + x + 2 is irreducible over F_3 but is not the default choice
    field = make_field(3, 2, (2, 1, 1))
    assert field.modulus == (2, 1, 1)
    assert field != make_field(3, 2)
    x = field.alpha
    assert x ** (field.q - 1) == field.one()
    assert pickle.loads(pickle.dumps(x)) == x


def test_subfield_embedding_is_a_ring_hom(f4, f16, f9, f3_8):
    for base, ext in ((f4, f16), (f9, f3_8)):
        embed = subfield_embedding(base, ext)
        images = {}
        for x in base.elements():
            images[x.enc] = embed(x)
        assert images[0].is_zero and images[1] == ext.one()
        for x in base.elements():
            for y in base.elements():
                assert embed(x + y) == images[x.enc] + images[y.enc]
                assert embed(x * y) == images[x.enc] * images[y.enc]
        # the image of the base generator keeps its multiplicative order
        gen = embed(base.alpha)
        assert gen ** (base.q - 1) == ext.one()
        for rho, _ in factorize(base.q - 1):
            assert gen ** ((base.q - 1) // rho) != ext.one()


def test_subfield_embedding_takes_the_smallest_root(f4, f8, f9, f16, f64, f3_6, f3_8):
    # the walk over mu_{q_b-1} picks the root an exhaustive scan of ext
    # would, on every (base, extension) pair the suite embeds
    for base, ext in ((f4, f16), (f8, f64), (f9, f3_6), (f9, f3_8)):
        roots = []
        for y in ext.elements():
            acc = ext.zero()
            for c in reversed(base.modulus):
                acc = acc * y + ext.scalar(c)
            if acc.is_zero:
                roots.append(y)
        assert len(roots) == base.n
        x = base.element(base.p)   # p encodes the basis generator x
        assert subfield_embedding(base, ext)(x) == min(roots, key=lambda y: y.enc)


def test_subfield_embedding_rejects_non_divisible_degrees(f4, f8):
    with pytest.raises(WrongFieldShape):
        subfield_embedding(f4, f8)


def test_elements_cross_field_operations_rejected(f7, f13):
    with pytest.raises(ValueError):
        f7.element(1) + f13.element(1)
