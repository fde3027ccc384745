import operator
import random
from fractions import Fraction as Q

import pytest

from plectic.errors import (
    DivisionByZero,
    DomainViolation,
    IrrationalValue,
    ParseError,
)
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


def test_evaluate_negative_fractional_power():
    with pytest.raises(DomainViolation):
        expr("x2^(1/2)").eval([0, -1, 0])


def test_evaluate_float_mode():
    v = expr("x2^(1/2)").eval([0, 2, 0], mode="float")
    assert abs(v - 2 ** 0.5) < 1e-15


def test_parse_rejects_unknown_function():
    with pytest.raises(ParseError):
        expr("sin(x2)")
    with pytest.raises(ParseError):
        expr("x9", dim=3)


def test_parse_i_only_in_gaussian_mode():
    with pytest.raises(ParseError):
        expr("i")
    g = parse_expression("2*i + 1", 2, gaussian=True)
    assert g.num.constant_value() == GaussianRational(1, 2)


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


def test_canonical_printing_grlex():
    e = expr("x2 + x1^2 + 3")
    assert str(e) == "x1^2 + x2 + 3"
    assert str(expr("1/2*x2^(-1/2)")) == "1/2*x2^(-1/2)"
    q = expr("x1") / expr("x2 + 1")
    assert format_rational(q) == "(x1)/(x2 + 1)"


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
