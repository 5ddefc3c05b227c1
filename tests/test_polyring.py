"""Sparse polynomials, the x^r * h(x^s) form, and interpolation."""

from __future__ import annotations

import gc
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invopoly import gf
from invopoly.errors import (
    FieldTooLarge,
    HasConstantTerm,
    NotADivisor,
    ParseError,
    PreconditionViolated,
    ZeroPolynomial,
)
from invopoly.gf import factorize, make_field
from invopoly.polyring import (
    _VALUE_SPAN,
    COMPOSE_LIMIT,
    RhsForm,
    SparsePoly,
    compose_reduce,
    decompose,
    interpolate_on_subgroup,
    interpolate_table,
    parse_poly,
    reduce_exponent,
)
from conftest import table_free_fields
from test_criterion import SMALL_FIELDS


def test_reduce_exponent_preserves_nonzero_powers():
    q = 7
    assert reduce_exponent(0, q) == 0
    assert reduce_exponent(1, q) == 1
    assert reduce_exponent(q - 1, q) == q - 1
    assert reduce_exponent(q, q) == 1
    assert reduce_exponent(2 * (q - 1), q) == q - 1
    field_check = [(pow(x, e, q) == pow(x, reduce_exponent(e, q), q))
                   for x in range(q) for e in range(1, 30)]
    assert all(field_check)


def test_parse_and_str_round_trip(f7, f64):
    for field, text in ((f7, "2*x^5 + 3*x^3 + 3*x"),
                        (f64, "a^21*x^62 + a^42*x^41 + a^42*x^20"),
                        (f7, "x^6 + 5"),
                        (f7, "x")):
        assert str(parse_poly(field, text)) == text
    assert str(parse_poly(f7, "3*x + x^2 - x")) == "x^2 + 2*x"
    assert str(parse_poly(f7, "0")) == "0"
    # the '*' before x is optional, and a sign right after '^' is an exponent's
    assert str(parse_poly(f7, "2x^5 + 3x^3 + 3x")) == "2*x^5 + 3*x^3 + 3*x"
    assert str(parse_poly(f64, "a^-1*x")) == "a^62*x"
    assert str(parse_poly(f64, "a^-1x^2 - a^2 x")) == "a^62*x^2 + a^2*x"
    for bad in ("x +", "2*y", "x^-2", "2*x*x"):
        with pytest.raises(ParseError):
            parse_poly(f7, bad)
    with pytest.raises(ValueError):
        SparsePoly.from_pairs(f7, [(-2, f7.one())])


def test_exponents_must_be_integers(f7):
    # an exponent goes through operator.index: a float is refused, not
    # truncated onto (or merged with) the integer below it
    three, one = f7.element(3), f7.one()
    with pytest.raises(TypeError):
        SparsePoly(f7, {2.5: three})
    with pytest.raises(TypeError):
        SparsePoly.from_pairs(f7, [(2.9, three), (2, one)])
    f = SparsePoly(f7, {True: three, 2: one})
    assert f.terms == {1: three, 2: one} and all(type(e) is int for e in f.terms)
    assert str(SparsePoly.from_pairs(f7, [(2, three), (2, one)])) == "4*x^2"
    for terms in ({3: one, -1: three}, {-1: f7.zero()}):
        with pytest.raises(ValueError):
            SparsePoly(f7, terms)


def _polys(field, max_exponent):
    return st.lists(st.tuples(st.integers(0, max_exponent), st.integers(0, field.q - 1)),
                    max_size=6).map(lambda pairs: SparsePoly.from_pairs(
                        field, [(e, field.element(c)) for e, c in pairs]))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_poly_text_round_trips(text_fields, data):
    field = data.draw(st.sampled_from(text_fields))
    f = data.draw(_polys(field, 3 * field.q))
    assert parse_poly(field, str(f)) == f
    assert parse_poly(field, str(f).replace("*", "")) == f


# every field with q <= 64
IDENTITY_FIELDS = [make_field(*factorize(q)[0]) for q in range(2, 65)
                   if len(factorize(q)) == 1]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_decompose_expand_identity(data):
    field = data.draw(st.sampled_from(IDENTITY_FIELDS))
    f = data.draw(_polys(field, 3 * field.q).filter(lambda f: 0 not in f.terms))
    reduced = f.reduce_exponents()
    if reduced.is_zero:   # x - x^q, say
        with pytest.raises(ZeroPolynomial):
            decompose(f)
        return
    form = decompose(f)
    assert form.r == min(reduced.terms) and (field.q - 1) % form.s == 0
    assert form.expand() == reduced
    s = data.draw(st.sampled_from([t for t in range(1, form.s + 1) if form.s % t == 0]))
    assert decompose(f, s).expand() == reduced


def test_value_table_matches_pointwise_evaluation(f7, f9, f16, table_free):
    rng = random.Random(23)
    for field in (f7, f9, f16, *table_free):
        for _ in range(25):
            terms = [(rng.randrange(0, 40), field.element(rng.randrange(field.q)))
                     for _ in range(rng.randrange(1, 5))]
            f = SparsePoly.from_pairs(field, terms)
            table = f.value_table()
            for x in field.elements():
                assert table[x.enc] == f.evaluate(x).enc


def test_log_values_over_a_range_reads_every_step():
    # the evaluator over range(start, stop, step) gives f(alpha^k) for each k
    # of the range, for steps s and -s alike (interpolation on mu_d walks the
    # logs of omega^-k downwards), and over the same logs as a list; a dense
    # form has more terms than a short call has logs, and sums point by point
    rng = random.Random(29)
    for field in SMALL_FIELDS:
        q = field.q
        for s in [t for t in range(1, q) if (q - 1) % t == 0]:
            for size in (rng.randrange(1, 5), rng.randrange(q, 3 * q)):
                terms = [(rng.randrange(0, 2 * q), field.element(rng.randrange(q)))
                         for _ in range(size)]
                f = SparsePoly.from_pairs(field, terms)
                values, start, count = f.log_values(), rng.randrange(-q, q), (q - 1) // s + 2
                for step in (s, -s):
                    ks = range(start, start + step * count, step)
                    expected = [f.evaluate(field.pow_alpha(k)).enc for k in ks]
                    assert values(ks) == values(list(ks)) == expected
                    assert [values.at(k) for k in ks] == expected


# table-backed fields of all three kernels: characteristic 2, prime, odd extension
LIFT_FIELDS = [(2, n) for n in range(2, 9)] + [(5, 1), (13, 1), (3, 2), (3, 4), (7, 2), (5, 3)]


@st.composite
def _lift_polys(draw, field, min_terms, max_terms):
    """Distinct exponents, a constant term, x^(q-1) and exponents >= q
    among them, and now and then a second term that cancels the first."""
    q = field.q
    exps = st.one_of(st.integers(1, q - 1), st.sampled_from([0, q - 1, q, 2 * q - 1]),
                     st.integers(q, 4 * q))
    t = draw(st.integers(min_terms, max_terms))
    es = draw(st.lists(exps, min_size=t, max_size=t, unique=True))
    terms = {e: field.element(draw(st.integers(1, q - 1))) for e in es}
    if draw(st.booleans()) and es[0] and es[0] + q - 1 not in terms:
        terms[es[0] + q - 1] = -terms[es[0]]   # the same function, negated
    return SparsePoly(field, terms)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_value_table_equals_evaluate_on_table_backed_fields(data):
    # g, the first terms of f, sizes a fresh field's lifted table; f
    # rebuilds it with wider lanes where it has more terms than they hold,
    # and g then reads the wider table.  A table-free twin, built as fields
    # above TABLE_LIMIT are, walks alpha's powers on its first value table
    # and rebuilds its lanes on that kept walk
    spec = data.draw(st.sampled_from(LIFT_FIELDS))
    if data.draw(st.booleans()):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gf, "TABLE_LIMIT", 0)
            field = make_field(*spec)
        assert field.log_table is None
    else:
        field = make_field(*spec)
    f = data.draw(_lift_polys(field, 1, field.q + 5))
    g = SparsePoly(field, dict(list(f.terms.items())[:data.draw(st.integers(1, len(f.terms)))]))
    expected = {h: [h.evaluate(x).enc for x in field.elements()] for h in (f, g)}
    for h in (g, f, g):
        assert h.value_table() == expected[h]
    # calls of fewer logs than f has terms, and of as many, point by point
    # and term by term: ranges of either step sign and lists of any logs
    values, q = f.log_values(), field.q
    count = data.draw(st.integers(0, len(f.terms)))
    start, step = data.draw(st.integers(-q, q)), data.draw(st.integers(-q, q).filter(bool))
    ks = range(start, start + step * count, step)
    for call in (ks, list(ks), data.draw(st.lists(st.integers(-q, 2 * q), max_size=count))):
        assert values(call) == [f.evaluate(field.pow_alpha(k)).enc for k in call]


LARGE_LIFT_FIELDS = [make_field(2, 16), make_field(3, 10)]


@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_value_table_equals_evaluate_on_the_largest_table_backed_fields(data):
    field = data.draw(st.sampled_from(LARGE_LIFT_FIELDS))
    f = data.draw(_lift_polys(field, 4, 9))
    table = f.value_table()
    rng = random.Random(len(f.terms))
    for x in rng.sample(range(field.q), 300) + [0, 1]:
        assert table[x] == f.evaluate(field.element(x)).enc


# on both sides of 2^14 powers, where encoding sums start to read a compact
# array, and of TABLE_LIMIT: two extensions of each characteristic kernel
# and two prime fields
SPAN_FIELDS = [make_field(2, 14), make_field(2, 15), make_field(7, 5), make_field(3, 9),
               make_field(65521), make_field(65537)]


@pytest.mark.parametrize("field", SPAN_FIELDS, ids=repr)
@settings(max_examples=6, derandomize=True, deadline=None)
@given(data=st.data())
def test_log_values_past_a_span_match_evaluate(field, data):
    q = field.q
    f = data.draw(_lift_polys(field, 1, 4))
    values = f.log_values()
    count = data.draw(st.integers(_VALUE_SPAN + 1, 2 * _VALUE_SPAN + 3))
    start = data.draw(st.integers(-q, q))
    step = data.draw(st.sampled_from([1, -1]) | st.integers(-q, q).filter(bool))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ks = range(start, start + step * count, step)
    if data.draw(st.booleans()):   # any logs, as a list
        ks = rng.choices(range(-q, 2 * q), k=count)
    got = values(ks)
    # only a field of more than a span of elements has passes that long
    assert isinstance(got, array if q > _VALUE_SPAN else list) and len(got) == count
    for i in rng.sample(range(count), 40) + [0, _VALUE_SPAN - 1, _VALUE_SPAN, count - 1]:
        assert got[i] == f.evaluate(field.pow_alpha(ks[i])).enc, (i, ks[i])
    assert isinstance(values(ks[:_VALUE_SPAN]), list)
    table = f.value_table()
    assert isinstance(table, list) and len(table) == q
    for x in rng.sample(range(q), 40) + [0, 1, q - 1]:
        assert table[x] == f.evaluate(field.element(x)).enc


@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_short_calls_on_a_dense_form_past_a_span_match_evaluate(data):
    # on a field of more than a span of elements, a form of more terms than
    # a call has logs sums point by point; a longer call, on either side of
    # the span, term by term
    field = SPAN_FIELDS[3]
    q = field.q
    f = data.draw(_lift_polys(field, 20, 60))
    values, t = f.log_values(), len(f.terms)
    count = data.draw(st.sampled_from([0, 1, t - 1, t, t + 1, _VALUE_SPAN + 1]))
    start, step = data.draw(st.integers(-q, q)), data.draw(st.integers(-q, q).filter(bool))
    ks = range(start, start + step * count, step)
    rng = random.Random(count)
    for call in (ks, list(ks), rng.choices(range(-q, 2 * q), k=count)):
        got = values(call)
        assert len(got) == count
        for i in rng.sample(range(count), min(count, 30)):
            assert got[i] == values.at(call[i]) == f.evaluate(field.pow_alpha(call[i])).enc


def test_evaluators_are_freed_without_the_cycle_collector(f9):
    # every sweep makes an evaluator: one that referred to itself would stay
    # alive, with its tables, until a collection
    for field in (f9, SPAN_FIELDS[1]):
        f = SparsePoly.from_pairs(field, [(7, field.alpha), (2, field.one())])
        gc.collect()
        gc.disable()
        try:
            for _ in range(20):
                f.log_values()(range(3))
            assert gc.collect() == 0
        finally:
            gc.enable()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_forms_and_expansions_equal_the_from_pairs_route(data):
    # RhsForm keeps an h whose exponents are all below d as it is, and
    # expand() writes its distinct exponents straight into the term dict;
    # both must give what folding and merging through from_pairs gives
    field = data.draw(st.sampled_from(IDENTITY_FIELDS + table_free_fields()))
    q = field.q
    s = data.draw(st.sampled_from([t for t in range(1, q) if (q - 1) % t == 0]))
    d = (q - 1) // s
    r = data.draw(st.integers(1, 3 * q))
    top = data.draw(st.sampled_from([d - 1, 3 * d]))   # below d, or folding
    pairs = data.draw(st.lists(st.tuples(st.integers(0, top), st.integers(0, q - 1)),
                               max_size=d + 2))
    h = SparsePoly.from_pairs(field, [(e, field.element(c)) for e, c in pairs])
    rhs = RhsForm(field, r, s, h)
    folded = SparsePoly.from_pairs(field, ((e % d, c) for e, c in h.terms.items()))
    assert rhs.h == folded and rhs.r == reduce_exponent(r, q)
    expanded = rhs.expand()
    assert expanded == SparsePoly.from_pairs(
        field, ((reduce_exponent(rhs.r + s * e, q), c) for e, c in folded.terms.items()))
    assert all(type(e) is int and not c.is_zero for e, c in expanded.terms.items())


def test_sparse_poly_merges_duplicate_exponents(f7):
    f = SparsePoly.from_pairs(f7, [(3, f7.element(4)), (3, f7.element(5))])
    assert f.coefficient(3).enc == 2
    g = SparsePoly.from_pairs(f7, [(2, f7.element(3)), (2, f7.element(4))])
    assert g.is_zero


def test_rhs_form_folds_h_and_normalizes_r(f13):
    h = parse_poly(f13, "x^7 + 2*x^3 + 1")
    rhs = RhsForm(f13, 5, 4, h)
    assert rhs.d == 3
    assert max(rhs.h.terms) < 3
    # folding h mod x^d - 1 and normalizing r never changes the function
    direct = {x.enc: (x**5 * h.evaluate(x**4)).enc for x in f13.elements()}
    via = rhs.expand().value_table()
    assert [direct[i] for i in range(13)] == via
    big_r = RhsForm(f13, 5 + 12, 4, h)
    assert big_r.r == 5 and big_r.expand() == rhs.expand()
    with pytest.raises(NotADivisor):
        RhsForm(f13, 1, 5, h)
    with pytest.raises(PreconditionViolated):
        RhsForm(f13, 0, 4, h)


def test_decompose_worked_example(f7):
    f = parse_poly(f7, "2*x^5 + 3*x^3 + 3*x")
    rhs = decompose(f)
    assert (rhs.r, rhs.s, rhs.d) == (1, 2, 3)
    assert rhs.expand() == f


def test_decompose_picks_largest_s_and_respects_forced_s(f7, f13):
    assert decompose(parse_poly(f7, "x^5")).s == 6
    rhs = decompose(parse_poly(f13, "x^7 + x^3"), s=4)
    assert rhs.s == 4 and rhs.r == 3
    with pytest.raises(NotADivisor):
        decompose(parse_poly(f13, "x^7 + x^3"), s=3)  # 3 does not divide gcd of gaps
    with pytest.raises(HasConstantTerm):
        decompose(parse_poly(f7, "x + 1"))
    with pytest.raises(ZeroPolynomial):
        decompose(SparsePoly.zero(f7))
    with pytest.raises(ZeroPolynomial):
        decompose(parse_poly(f7, "x + 6*x^7"))   # x^7 folds onto x


def test_decompose_round_trips_random_forms(f9, f16):
    rng = random.Random(41)
    for field in (f9, f16):
        for _ in range(50):
            s = rng.choice([t for t in range(1, field.q)
                            if (field.q - 1) % t == 0])
            r = rng.randrange(1, field.q)
            d = (field.q - 1) // s
            h = SparsePoly.from_pairs(
                field, [(i, field.element(rng.randrange(field.q))) for i in range(d)])
            if h.is_zero:
                continue
            rhs = RhsForm(field, r, s, h)
            back = decompose(rhs.expand())
            assert back.expand().value_table() == rhs.expand().value_table()


def test_interpolate_on_subgroup(f7, f13):
    omega, mu = f13.subgroup(4)
    rng = random.Random(6)
    for _ in range(20):
        values = [f13.element(rng.randrange(13)) for _ in range(4)]
        h = interpolate_on_subgroup(f13, values)
        assert h.degree() < 4
        for z, v in zip(mu, values):
            assert h.evaluate(z) == v
    with pytest.raises(NotADivisor):
        interpolate_on_subgroup(f13, [f13.one()] * 5)
    with pytest.raises(ValueError):
        interpolate_on_subgroup(f13, [f13.one(), f7.one(), f13.one()])
    big = make_field(2, 12)   # d = 4095 divides q - 1 and is odd
    assert 4095 > COMPOSE_LIMIT
    with pytest.raises(FieldTooLarge):
        interpolate_on_subgroup(big, [big.one()] * 4095)


# 3^4 joins the small fields as the table-backed twin of a table_free field
ROUND_TRIP_FIELDS = SMALL_FIELDS + [make_field(3, 4)]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(data=st.data())
def test_interpolate_on_subgroup_round_trips(data):
    table_free = table_free_fields()
    field = data.draw(st.sampled_from(ROUND_TRIP_FIELDS + table_free))
    d = data.draw(st.sampled_from([t for t in range(1, field.q) if (field.q - 1) % t == 0]))
    encs = data.draw(st.lists(st.integers(0, field.q - 1), min_size=d, max_size=d))
    h = interpolate_on_subgroup(field, [field.element(v) for v in encs])
    assert h.degree() < d
    _, mu = field.subgroup(d)
    assert [h.evaluate(z).enc for z in mu] == encs
    # a field with exp/log tables and its table-free twin (equal as fields)
    # give the same coefficients, one by lifted sums, one with the kernel
    for twin in [f for f in ROUND_TRIP_FIELDS + table_free if f == field and f is not field]:
        other = interpolate_on_subgroup(twin, [twin.element(v) for v in encs])
        assert {k: c.enc for k, c in other.terms.items()} == {k: c.enc for k, c in h.terms.items()}


def test_interpolate_table_reproduces_any_map(f7, f16):
    rng = random.Random(17)
    for field in (f7, f16):
        for _ in range(10):
            table = [rng.randrange(field.q) for _ in range(field.q)]
            f = interpolate_table(field, table)
            assert f.value_table() == table
            assert f.degree() < field.q


def test_interpolate_table_respects_size_limit(f7):
    class Huge:
        q = 1 << 30
    with pytest.raises(FieldTooLarge):
        interpolate_table(Huge(), [])


def test_compose_reduce_worked_example(f7):
    f = parse_poly(f7, "2*x^5 + 3*x^3 + 3*x")
    ff = compose_reduce(f, f)
    assert ff.value_table() == [x for x in range(7)]
    g = parse_poly(f7, "x^3")
    gg = compose_reduce(g, g)
    assert gg.value_table() == [pow(x, 9, 7) for x in range(7)]
