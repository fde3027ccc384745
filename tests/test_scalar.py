import math
import operator
import random
import time
from fractions import Fraction as Q
from itertools import combinations

import pytest

from plectic.errors import (
    DivisionByZero,
    DomainViolation,
    IrrationalValue,
    ParseError,
    ShapeError,
)
from plectic.exterior import chart, constant_linear_pullback, form
from plectic.liesym import LieAlgebraData
from plectic.scalar import (
    GaussianRational,
    RationalExpr,
    ScalarExpr,
    format_gaussian_point,
    format_rational,
    fraction_pow,
    parse_expression,
    parse_gaussian,
)
from gaussian_reference import ReferenceGaussian
from util import rand_poly


def expr(text, dim=3):
    return parse_expression(text, dim)


def test_like_term_merge():
    sqrt = expr("x2^(1/2)")
    assert sqrt + sqrt == expr("2*x2^(1/2)")


def test_exponent_addition():
    sqrt = expr("x2^(1/2)")
    assert sqrt * sqrt == expr("x2")


def test_quotient_construction_monic_den():
    q = expr("1") / (expr("4") * expr("x2^(1/2)"))
    assert q.num == ScalarExpr.const(3, Q(1, 4))
    assert q.den == ScalarExpr.variable(3, 2, Q(1, 2))


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        expr("x1") / expr("0")


def test_partial_power_rule():
    assert expr("x2^(1/2)").partial(2) == expr("1/2*x2^(-1/2)")
    assert expr("x2").partial(1) == expr("0")


def test_partial_quotient_rule():
    inv = expr("1") / expr("x2")
    assert inv.partial(2) == -(expr("1") / expr("x2^2"))


def test_evaluate_exact():
    assert expr("x2^(1/2)").eval([0, 4, 0]) == 2
    q = expr("1") / (expr("4") * expr("x2^(1/2)"))
    assert q.eval([0, 1, 0]) == Q(1, 4)


def test_evaluate_irrational():
    with pytest.raises(IrrationalValue):
        expr("x2^(1/2)").eval([0, 2, 0])


def test_exact_roots_of_large_integers():
    # a float first guess misses roots beyond 2^53 and overflows past 10^308
    r = 10**20 + 1
    assert fraction_pow(Q(r**3), Q(1, 3)) == r
    assert fraction_pow(Q(r**5, 7**10), Q(2, 5)) == Q(r**2, 7**4)
    assert fraction_pow(Q(10**600), Q(1, 3)) == 10**200
    with pytest.raises(IrrationalValue):
        fraction_pow(Q(r**3 + 1), Q(1, 3))
    with pytest.raises(IrrationalValue):
        fraction_pow(Q(10**400), Q(1, 3))


def test_gaussian_powers_go_through_fraction_pow():
    g = [GaussianRational(1, 1), GaussianRational(0, 2)]  # (1+i)^2 = 2i
    assert expr("x1^2/x2", dim=2).eval(g) == 1
    assert expr("x1^2*x2^(-1)", dim=2).eval(g) == 1
    mono = RationalExpr(ScalarExpr(2, {(1, 0): GaussianRational(1, 1)}))
    # (1+i)^-2 = 1/(2i) = -i/2
    want = RationalExpr(ScalarExpr(2, {(-2, 0): GaussianRational(0, Q(-1, 2))}))
    assert mono.pow_fraction(Q(-2)) == want
    assert fraction_pow(GaussianRational(1, 1), Q(-2)) == GaussianRational(0, Q(-1, 2))
    for fractional in (lambda: mono.pow_fraction(Q(1, 2)),
                       lambda: expr("x1^(1/2)", dim=1).eval([GaussianRational(0, 1)]),
                       lambda: fraction_pow(GaussianRational(4), Q(1, 2))):
        with pytest.raises(IrrationalValue, match="fractional power of a Gaussian rational"):
            fractional()
    for zero_pole in (lambda: expr("x1^(-1)", dim=1).eval([GaussianRational(0)]),
                      lambda: fraction_pow(GaussianRational(0), Q(-2))):
        with pytest.raises(DivisionByZero, match="0 raised to a negative power"):
            zero_pole()


def test_library_rationals_are_read_as_payloads_are():
    # one reader: an integer or p/q string, a Fraction, or a real Gaussian
    c = chart(2)
    assert c.check_point(["3/2", " -2 "]) == [Q(3, 2), -2]
    assert c.check_point([GaussianRational(1, 0), 0]) == [1, 0]
    assert LieAlgebraData(1, [[["0"]]]).c == (((0,),),)
    for text in ("1e5", "1.5", "abc"):
        with pytest.raises(ParseError):
            c.check_point([text, 0])
    for text in ("0.0", "abc"):
        with pytest.raises(ParseError):
            LieAlgebraData(1, [[[text]]])
    with pytest.raises(ShapeError, match="not an exact rational: 1\\+2i"):
        c.check_point([GaussianRational(1, 2), 0])


def test_evaluate_negative_fractional_power():
    with pytest.raises(DomainViolation):
        expr("x2^(1/2)").eval([0, -1, 0])


def test_negative_power_of_a_non_monomial():
    """An integer exponent below zero inverts a sum: its quotient, or
    DivisionByZero when the sum is zero."""
    assert parse_expression("(x1+1)^(-1)", 2) == 1 / parse_expression("x1+1", 2)
    with pytest.raises(DivisionByZero):
        parse_expression("(x1-x1)^(-1)", 2)


def test_parse_rejects_unknown_function():
    with pytest.raises(ParseError):
        expr("sin(x2)")
    with pytest.raises(ParseError):
        expr("x9", dim=3)


def test_parse_i_only_in_gaussian_mode():
    with pytest.raises(ParseError):
        expr("i")


def test_negative_exponent_grammar():
    assert expr("x1^(-2)") * expr("x1^2") == expr("1")


@pytest.mark.parametrize("seed", range(6))
def test_ring_laws(seed):
    rng = random.Random(seed)
    a = rand_poly(rng, 3)
    b = rand_poly(rng, 3)
    c = rand_poly(rng, 3)
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c


@pytest.mark.parametrize("seed", range(6))
def test_derivative_linearity_and_leibniz(seed):
    rng = random.Random(100 + seed)
    a = rand_poly(rng, 3)
    b = rand_poly(rng, 3)
    i = rng.randint(1, 3)
    assert (a + b).partial(i) == a.partial(i) + b.partial(i)
    assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)


@pytest.mark.parametrize("seed", range(6))
def test_eval_is_ring_homomorphism(seed):
    rng = random.Random(200 + seed)
    a = rand_poly(rng, 3)
    b = rand_poly(rng, 3)
    pt = [Q(rng.randint(-3, 3)) for _ in range(3)]
    try:
        assert (a * b).eval(pt) == a.eval(pt) * b.eval(pt)
        assert (a + b).eval(pt) == a.eval(pt) + b.eval(pt)
    except DivisionByZero:
        pass


def test_cross_multiplication_equality():
    # 1/(4 sqrt(x2)) printed vs folded monomial form
    q = expr("1") / (expr("4") * expr("x2^(1/2)"))
    folded = expr("1/4*x2^(-1/2)")
    assert q == folded
    assert not (q == expr("x2"))


def test_equal_quotients_hash_equal():
    # regression: x1^2/x1 == x1 used to hash differently, so a set held both
    one = parse_expression("x1^2/x1", 1)
    assert one == parse_expression("x1", 1)
    assert len({one, parse_expression("x1", 1)}) == 1
    cases = [
        (expr("x1^2 + x1") / expr("x1 + 1"), expr("x1")),
        (expr("x1") / (expr("2") * expr("x2^(1/2)")), expr("1/2*x1*x2^(-1/2)")),
        (expr("x2 - 1") * expr("x3") / (expr("x2 - 1") * expr("x1")), expr("x3") / expr("x1")),
        (expr("3*x1 + 3") / expr("x1 + 1"), 3),
        (expr("x1 + 1") / (expr("4") * expr("x1 + 1")), Q(1, 4)),
    ]
    for a, b in cases:
        assert a == b
        assert hash(a) == hash(b)
    assert hash(ScalarExpr.const(3, 5)) == hash(5) == hash(expr("5"))
    assert hash(expr("x1 + x2").num) == hash(expr("x1 + x2"))


def test_equal_quotients_over_one_denominator_compare_without_a_product(monkeypatch):
    """Over equal denominator terms the numerator terms decide equality, and
    a quotient equals itself: two equal quotients of 720 terms over a
    30-term denominator compare in well under 0.1 s and run no ScalarExpr
    product (cross-multiplying them would make 2 x 21,600 term products)."""
    dim = 4
    num = {(i % 9, i // 9 % 8, i // 72, 1): Q(i - 360, 7) or Q(1) for i in range(720)}
    den = {(i % 5, i // 5, 0, 0): Q(i + 1, 3) for i in range(30)}
    a = RationalExpr(ScalarExpr(dim, num), ScalarExpr(dim, den))
    b = RationalExpr(ScalarExpr(dim, dict(reversed(num.items()))),
                     ScalarExpr(dim, dict(reversed(den.items()))))
    c = RationalExpr(ScalarExpr(dim, {**num, (0, 0, 0, 0): Q(1)}), ScalarExpr(dim, den))
    assert a is not b and a.num.terms is not b.num.terms and len(a.num.terms) >= 700
    calls = []
    general = ScalarExpr.__mul__
    monkeypatch.setattr(ScalarExpr, "__mul__", lambda x, y: calls.append(1) or general(x, y))
    start = time.perf_counter()
    assert a == a and a == b and b == a
    assert a != c and not c == b
    assert time.perf_counter() - start < 0.1
    assert not calls
    monkeypatch.undo()
    # over different denominators cross-multiplication still decides
    x3 = RationalExpr.variable(dim, 3)
    assert RationalExpr(a.num * x3.num, a.den * x3.num) == a
    assert RationalExpr(c.num * x3.num, c.den * x3.num) != a


def test_property_gaussian_arithmetic_reduces_to_the_fraction_pair_reference():
    """+, - and * of a GaussianRational with a GaussianRational, an int or a
    Fraction, on either side, equal the two-Fraction reference and are
    stored in normal form: d > 0 and gcd(a, b, d) == 1."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.one_of(st.fractions(min_value=-50, max_value=50, max_denominator=12),
                          st.fractions(max_denominator=10**9))
    gaussians = st.builds(GaussianRational, rationals, rationals)
    operands = st.one_of(gaussians, st.integers(-10**12, 10**12), rationals)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(gaussians, operands)
    def check(x, y):
        rx = ReferenceGaussian(x.re, x.im)
        ry = ReferenceGaussian(y.re, y.im) if type(y) is GaussianRational else y
        for op in (operator.add, operator.sub, operator.mul):
            for got, want in ((op(x, y), op(rx, ry)), (op(y, x), op(ry, rx))):
                assert type(got) is GaussianRational
                assert got._d > 0 and math.gcd(got._a, got._b, got._d) == 1
                assert (got.re, got.im) == (want.re, want.im)

    check()


def test_canonical_printing_grlex():
    e = expr("x2 + x1^2 + 3")
    assert str(e) == "x1^2 + x2 + 3"
    assert str(expr("1/2*x2^(-1/2)")) == "1/2*x2^(-1/2)"
    q = expr("x1") / expr("x2 + 1")
    assert format_rational(q) == "(x1)/(x2 + 1)"


def test_a_real_gaussian_coefficient_prints_as_its_rational():
    GR = GaussianRational
    gauss = ScalarExpr(1, {(2,): GR(4), (1,): GR(-4), (0,): GR(1)})
    plain = ScalarExpr(1, {(2,): Q(4), (1,): Q(-4), (0,): Q(1)})
    assert str(gauss) == str(plain) == "4*x1^2 - 4*x1 + 1"
    # a Gaussian-monic denominator prints as a Fraction-monic one
    monic = RationalExpr(ScalarExpr(1, {(0,): GR(1)}), ScalarExpr(1, {(1,): GR(2)}))
    assert format_rational(monic) == "(1/2)/(x1)"
    assert str(ScalarExpr(1, {(1,): GR(1, 2)})) == "(1+2i)*x1"


def test_print_parse_roundtrip():
    cases = ["x1^2 + x2 + 3", "1/2*x2^(-1/2)", "(x1)/(x2 + 1)", "0", "-x1 - 2"]
    for text in cases:
        e = parse_expression(text, 3)
        assert format_rational(e) == text or parse_expression(format_rational(e), 3) == e
        # canonical output re-parses to an equal expression and re-prints identically
        again = parse_expression(format_rational(e), 3)
        assert format_rational(again) == format_rational(e)


def test_gaussian_arithmetic():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Q(1, 2), Q(-3, 4))
    assert z * z.conjugate() == Q(1, 4) + Q(9, 16)
    assert (z / z) == 1
    with pytest.raises(DivisionByZero):
        z / GaussianRational(0, 0)


def test_gaussian_defers_to_a_symbolic_operand():
    # regression: GaussianRational(1) * x1 raised ShapeError, x1 * GaussianRational(1) worked
    x1 = expr("x1")
    assert GaussianRational(1) * x1 == x1 * GaussianRational(1) == x1
    z = GaussianRational(Q(1, 2), 3)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        assert op(z, x1) == op(RationalExpr.const(3, z), x1)
        assert op(x1, z) == op(x1, RationalExpr.const(3, z))


# -- GaussianRational against the two-Fraction reference -----------------------


def _gaussian_pairs(seed, count=12):
    """(value, reference) pairs over Q(i): zero, real, imaginary and seeded ones."""
    rng = random.Random(seed)
    parts = [(0, 0), (1, 0), (0, 1), (Q(-3, 4), 0), (0, Q(5, 6)), (Q(2, 4), Q(4, 6)),
             (Q(10**20 + 1, 3**15), Q(-7, 10**12))]
    while len(parts) < count:
        parts.append(tuple(Q(rng.randint(-9, 9), rng.randint(1, 8)) for _ in range(2)))
    return [(GaussianRational(*p), ReferenceGaussian(*p)) for p in parts]


def _outcome(op, *args):
    try:
        return op(*args)
    except DivisionByZero:
        return DivisionByZero


def _assert_same(got, want):
    if want is DivisionByZero:
        assert got is DivisionByZero
        return
    assert type(got) is GaussianRational
    assert type(got.re) is Q and type(got.im) is Q
    assert (got.re, got.im) == (want.re, want.im)
    assert got == GaussianRational(want.re, want.im)  # one representation per value
    assert hash(got) == hash(want)
    assert str(got) == str(want) and repr(got) == repr(want)
    assert bool(got) == bool(want)


@pytest.mark.parametrize("seed", range(3))
def test_gaussian_matches_the_two_fraction_reference(seed):
    pairs = _gaussian_pairs(500 + seed)
    rationals = [0, 1, -3, Q(2, 3), Q(-5, 4)]
    binary = (operator.add, operator.sub, operator.mul, operator.truediv)
    for x, rx in pairs:
        _assert_same(x, rx)
        _assert_same(-x, -rx)
        _assert_same(x.conjugate(), rx.conjugate())
        for y, ry in pairs:
            assert (x == y) == (rx == ry) and (x != y) == (rx != ry)
            for op in binary:
                _assert_same(_outcome(op, x, y), _outcome(op, rx, ry))
        for q in rationals:
            assert (x == q) == (rx == q) and (q == x) == (q == rx)
            for op in binary:
                _assert_same(_outcome(op, x, q), _outcome(op, rx, q))
                _assert_same(_outcome(op, q, x), _outcome(op, q, rx))
        for k in (-2, 0, 3):  # integer powers by repeated reference products
            want = ReferenceGaussian(1)
            for _ in range(abs(k)):
                want = want * rx
            if k < 0:
                want = _outcome(operator.truediv, ReferenceGaussian(1), want)
            _assert_same(_outcome(operator.pow, x, k), want)
        for other in (0.5, "1", None):
            assert (x == other) == (rx == other)
            for op in binary + (operator.pow,):
                with pytest.raises(TypeError):
                    op(x, other)
                with pytest.raises(TypeError):
                    op(other, x)


def test_gaussian_hash_follows_the_value():
    for q in [0, 1, -7, Q(1, 3), Q(-22, 7), Q(10**30, 3)]:
        assert hash(GaussianRational(q)) == hash(Q(q))
        assert GaussianRational(q) == q and q == GaussianRational(q)
    halved = GaussianRational(2, 4) / 2
    assert halved == GaussianRational(1, 2)
    assert hash(halved) == hash(GaussianRational(1, 2))
    assert GaussianRational(Q(3, 6), Q(-2, 8)) == GaussianRational(Q(1, 2), Q(-1, 4))


def test_gaussian_hash_reads_the_integers(monkeypatch):
    from plectic import scalar

    # a real value hashes like its int and its Fraction, as == with them demands
    for q in [0, 1, -7, 10**30]:
        assert hash(GaussianRational(q)) == hash(q) == hash(Q(q))
    for q in [Q(1, 3), Q(-22, 7), Q(10**30, 3)]:
        assert hash(GaussianRational(q)) == hash(q)
    # equal values hash alike however they were reached
    z = GaussianRational(Q(1, 2), Q(-3, 4))
    for w in (GaussianRational(2, -3) / 4, parse_gaussian("1/2-3/4 i"),
              GaussianRational(Q(1, 4)) * 2 - GaussianRational(0, Q(3, 4))):
        assert w == z and hash(w) == hash(z)
    assert hash(z) == hash((2, -3, 4))
    # only a non-integral real builds a Fraction to hash
    values = [z, GaussianRational(0, 5), GaussianRational(-4), GaussianRational(Q(3, 2))]
    built = []
    monkeypatch.setattr(scalar, "Fraction", lambda *a: built.append(a) or Q(*a))
    hashes = [hash(v) for v in values]
    monkeypatch.undo()
    assert built == [(3, 2)]
    assert hashes[2:] == [hash(-4), hash(Q(3, 2))]


def test_gaussian_parts_are_read_only():
    z = GaussianRational(Q(1, 2), 3)
    for name in ("re", "im"):
        with pytest.raises(AttributeError):
            setattr(z, name, Q(0))
    assert (z.re, z.im) == (Q(1, 2), Q(3))


# -- raw constructors -----------------------------------------------------------


def _assert_normal_scalar(r):
    assert ScalarExpr(r.dim, r.terms).terms == r.terms
    for exps, c in r.terms.items():
        for e in exps:
            assert type(e) in (int, Q)
            assert (type(e) is int) == (Q(e).denominator == 1)
        assert type(c) in (Q, GaussianRational)
        assert c
        # reduced: rebuilding from the parts gives the same stored integers
        assert c == (Q(c.numerator, c.denominator) if type(c) is Q
                     else GaussianRational(c.re, c.im))


def _assert_normal_quotient(r):
    _assert_normal_scalar(r.num)
    _assert_normal_scalar(r.den)
    assert r.den.leading_coeff() == 1
    if r.is_zero:
        assert r.den.terms == {(0,) * r.dim: 1}


def test_property_raw_paths_return_normal_form():
    """Every operation that builds its result with ``_raw`` returns terms that
    the validating constructors would leave unchanged."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dim = 2
    exponents = st.one_of(st.integers(-2, 3),
                          st.builds(Q, st.integers(-4, 4), st.sampled_from([2, 3])))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coefficients = st.one_of(rationals, st.builds(GaussianRational, rationals, rationals))
    scalars = st.dictionaries(st.tuples(exponents, exponents), coefficients,
                              max_size=4).map(lambda terms: ScalarExpr(dim, terms))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    @hypothesis.given(scalars, scalars, coefficients, st.integers(1, dim))
    def check(a, b, c, i):
        for r in (a + b, a + (-a), b + (-a) + a, -a, a * b, a * a, a.scale(c),
                  a.partial(i), ScalarExpr.const(dim, c)):
            _assert_normal_scalar(r)
            assert r.is_constant == all(not any(k) for k in r.terms)
        p = RationalExpr(a, b) if b else RationalExpr(a)
        q = RationalExpr(b, p.den)
        for r in (p + q, p + (-p), -p, p * q, p * p, RationalExpr(a).partial(i),
                  RationalExpr.const(dim, c)):
            _assert_normal_quotient(r)

    check()


def test_property_constant_linear_pullback_returns_normal_form():
    """``constant_linear_pullback`` wraps its coefficients with ``_raw``;
    over Fraction and Gaussian forms and matrices with denominators each
    one must be a nonzero normal-form constant."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dim = 4
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    coefficients = st.one_of(rationals, st.builds(GaussianRational, rationals, rationals))
    matrices = st.lists(st.lists(rationals, min_size=dim, max_size=dim),
                        min_size=dim, max_size=dim)

    @st.composite
    def forms(draw):
        p = draw(st.integers(1, dim))
        keys = draw(st.lists(st.sampled_from(list(combinations(range(1, dim + 1), p))),
                             min_size=1, max_size=4, unique=True))
        return form(chart(dim), p, {k: RationalExpr.const(dim, draw(coefficients))
                                    for k in keys})

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(forms(), matrices)
    def check(w, M):
        for c in constant_linear_pullback(w, M).coeffs.values():
            _assert_normal_quotient(c)
            assert c and c.is_constant
            assert c.num.terms == RationalExpr.const(dim, c.constant_value()).num.terms

    check()


def test_property_constant_operand_scales_term_wise():
    """A product with a constant operand (int, Fraction, GaussianRational,
    zero, or a constant RationalExpr, on either side) is the general
    product RationalExpr(a.num * b.num, a.den * b.den), term for term."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dim = 2
    exponents = st.one_of(st.integers(-2, 3),
                          st.builds(Q, st.integers(-4, 4), st.sampled_from([2, 3])))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    gaussians = st.builds(GaussianRational, rationals, rationals)
    scalars = st.dictionaries(st.tuples(exponents, exponents),
                              st.one_of(rationals, gaussians),
                              max_size=4).map(lambda terms: ScalarExpr(dim, terms))
    quotients = st.tuples(scalars, scalars).map(
        lambda p: RationalExpr(p[0], p[1]) if p[1] else RationalExpr(p[0]))
    numbers = st.one_of(st.integers(-5, 5), rationals, gaussians, st.just(0), st.just(Q(0)))
    factors = st.one_of(numbers, numbers.map(lambda c: RationalExpr.const(dim, c)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(quotients, factors)
    def check(a, f):
        b = f if isinstance(f, RationalExpr) else RationalExpr.const(dim, f)
        want = RationalExpr(a.num * b.num, a.den * b.den)
        for got in (a * f, f * a):
            assert got == want and hash(got) == hash(want)
            assert got.num.terms == want.num.terms and got.den.terms == want.den.terms
            _assert_normal_quotient(got)

    check()


def test_constant_operand_skips_the_general_product(monkeypatch):
    """Products with, and quotients by or of, a constant run no ScalarExpr
    product and no validating RationalExpr constructor."""
    a = expr("(x1^(1/2) + 2*x2)/(x3^2 - x1)")
    constants = (3, 0, Q(-2, 5), GaussianRational(1, -2), RationalExpr.const(3, Q(7, 4)),
                 RationalExpr.const(3, 0), expr("5"))
    calls = []
    general, validating = ScalarExpr.__mul__, RationalExpr.__init__
    monkeypatch.setattr(ScalarExpr, "__mul__",
                        lambda x, y: calls.append(1) or general(x, y))
    monkeypatch.setattr(RationalExpr, "__init__",
                        lambda x, *args: calls.append(2) or validating(x, *args))
    for c in constants:
        for r in (a * c, c * a):
            if c:
                assert r.den is a.den  # kept as is
            else:
                assert r.is_zero and r.den.terms == {(0, 0, 0): 1}
        RationalExpr.const(3, 2) * c
        c / a
        if c:
            assert (a / c).den is a.den
            RationalExpr.const(3, 2) / c
    assert not calls
    a * a  # the general product still goes through ScalarExpr.__mul__
    assert calls and 2 not in calls
    a / (a + 1)  # and the general quotient through the validating constructor
    assert 2 in calls


def test_property_constant_division_scales_term_wise():
    """A quotient by or of a constant (an int, Fraction, GaussianRational,
    zero, or a constant RationalExpr) is the general quotient
    RationalExpr(a.num * b.den, a.den * b.num): equal, hashing alike and in
    normal form; a zero divisor raises DivisionByZero."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dim = 2
    exponents = st.one_of(st.integers(-2, 3),
                          st.builds(Q, st.integers(-4, 4), st.sampled_from([2, 3])))
    rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    gaussians = st.builds(GaussianRational, rationals, rationals)
    scalars = st.dictionaries(st.tuples(exponents, exponents),
                              st.one_of(rationals, gaussians),
                              max_size=4).map(lambda terms: ScalarExpr(dim, terms))
    quotients = st.tuples(scalars, scalars).map(
        lambda p: RationalExpr(p[0], p[1]) if p[1] else RationalExpr(p[0]))
    numbers = st.one_of(st.integers(-5, 5), rationals, gaussians, st.just(0), st.just(Q(0)))
    constants = st.one_of(numbers, numbers.map(lambda c: RationalExpr.const(dim, c)))

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(quotients, constants)
    def check(a, f):
        b = f if isinstance(f, RationalExpr) else RationalExpr.const(dim, f)
        for (x, y), (xr, yr) in (((a, f), (a, b)), ((f, a), (b, a))):
            if not yr:
                with pytest.raises(DivisionByZero):
                    x / y
                continue
            got = x / y
            want = RationalExpr(xr.num * yr.den, xr.den * yr.num)
            assert got == want and hash(got) == hash(want)
            _assert_normal_quotient(got)

    check()


def test_gaussian_point_format_roundtrip():
    for text in ["1/2-3/4 i", "2", "-i", "i", "0", "-5/7", "3 i", "1+i"]:
        g = parse_gaussian(text)
        assert parse_gaussian(format_gaussian_point(g)) == g


def test_substitute_polynomial():
    # compose x1^2 + x2 with (t, t^3)
    e = expr("x1^2 + x2", dim=2)
    t = parse_expression("x1", 1)
    composed = e.substitute([t, t * t * t])
    assert composed == parse_expression("x1^2 + x1^3", 1)


def test_substitute_fractional_power_of_monomial():
    e = expr("x1^(1/2)", dim=1)
    composed = e.substitute([parse_expression("4*x1^2", 1)])
    assert composed == parse_expression("2*x1", 1)
    with pytest.raises(IrrationalValue):
        e.substitute([parse_expression("x1 + 1", 1)])


def test_scalar_ring_matches_sympy():
    """The scalar-ring oracle: ``*``, ``+``, ``partial`` (either sign) and
    ``substitute`` of ScalarExpr and RationalExpr agree with sympy's field
    of rational functions, on polynomials and quotients in three variables
    with powers x1^(+-1/2) and x1^(3/2) of the positive x1.  sympy reads x1
    as t^2, so every power is whole in t and d/dx1 is d/dt over 2t.  x1 is
    replaced by c^2 x1^(2m), whose square root c t^(2m) sympy then uses."""
    sympy = pytest.importorskip("sympy")
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ring, _t, _x2, _x3 = sympy.ring("t,x2,x3", sympy.QQ)
    field = ring.to_field()
    t, x2, x3 = field.gens
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    exponents = st.tuples(st.sampled_from([0, 1, 2, Q(1, 2), Q(-1, 2), Q(3, 2)]),
                          st.integers(0, 2), st.integers(0, 2))
    scalars = st.lists(st.tuples(fractions, exponents), min_size=1, max_size=3).map(
        lambda terms: ScalarExpr(3, {e: c for c, e in terms}))
    quotients = st.tuples(scalars, scalars.filter(lambda d: not d.is_constant)).map(
        lambda nd: RationalExpr(*nd))
    rationals = st.one_of(scalars.map(RationalExpr), quotients)
    roots = st.tuples(st.fractions(min_value=Q(1, 3), max_value=3, max_denominator=3),
                      st.sampled_from([Q(1, 2), 1, Q(-1, 2), Q(3, 2)]))

    def to_sympy(e):
        """e with x1 = t^2 in sympy's field: one polynomial over a power of t."""
        if isinstance(e, RationalExpr):
            return to_sympy(e.num) / to_sympy(e.den)
        terms = {(int(2 * k1), int(k2), int(k3)): c for (k1, k2, k3), c in e.terms.items()}
        shift = -min([0] + [k[0] for k in terms])
        poly = ring.from_dict({(k1 + shift, k2, k3): sympy.Rational(c.numerator, c.denominator)
                               for (k1, k2, k3), c in terms.items()})
        return field(poly) / t ** shift

    def composed(e, root, y2, y3):
        """e with x1 = root^2, x2 = y2 and x3 = y3, summed term by term."""
        if isinstance(e, RationalExpr):
            return composed(e.num, root, y2, y3) / composed(e.den, root, y2, y3)
        total = field(0)
        for (k1, k2, k3), c in e.terms.items():
            term = field(sympy.Rational(c.numerator, c.denominator))
            for y, k in ((root, 2 * k1), (y2, k2), (y3, k3)):
                if k:  # sympy refuses 0**0
                    term *= y ** int(k)
            total += term
        return total

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(scalars, scalars, rationals, quotients, roots, rationals, rationals)
    def check(sa, sb, ra, rb, root, c2, c3):
        for a, b in ((sa, sb), (ra, rb)):
            fa, fb = to_sympy(a), to_sympy(b)
            assert to_sympy(a * b) == fa * fb and to_sympy(a + b) == fa + fb, (a, b)
            derivatives = (fa.diff(t) / (2 * t), fa.diff(x2), fa.diff(x3))
            for i, d in enumerate(derivatives, start=1):
                assert to_sympy(a.partial(i)) == d and to_sympy(a.partial(i, -1)) == -d, (a, i)
        c, m = root
        c1 = RationalExpr(ScalarExpr.monomial(3, c * c, (2 * m, 0, 0)))
        try:
            got = ra.substitute([c1, c2, c3])
        except DivisionByZero:
            return
        want = composed(ra, sympy.Rational(c.numerator, c.denominator) * t ** int(2 * m),
                        to_sympy(c2), to_sympy(c3))
        assert to_sympy(got) == want, (ra, c1, c2, c3)

    check()
