import random
from fractions import Fraction as Q

import pytest

from plectic import hdw
from plectic.catalog import omega_f
from plectic.classify import nondegenerate
from plectic.errors import (
    ChartMismatch,
    DegenerateForm,
    DegreeError,
    NotHamiltonian,
    ShapeError,
)
from plectic.exterior import (
    SmoothMap,
    chart,
    coordinate_vector,
    ext_d,
    form,
    interior,
    poincare_homotopy,
)
from plectic.hdw import (
    SIGN_FIN1,
    ham_curve_check,
    ham_vector_field,
    hamilton_volterra_residual,
    hdw_residual,
    multiphase_forms,
)
from plectic.scalar import RationalExpr, parse_expression
from util import free_field_section, function_form, multivec, rand_form

C2 = chart(2)
C3 = chart(3)
C6 = chart(6)
W2 = form(C2, 2, {(1, 2): 1})
W3 = form(C3, 3, {(1, 2, 3): 1})
W6 = form(C6, 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def test_symplectic_coordinate_field():
    X = ham_vector_field(W2, function_form(C2, "x1"))
    assert X == coordinate_vector(C2, 2)


def test_volume_field():
    X = ham_vector_field(W3, form(C3, 1, {(1,): "x3"}))
    assert X == multivec(C3, 1, {(2,): -1})
    assert interior(X, W3) == -ext_d(form(C3, 1, {(1,): "x3"}))


def test_not_hamiltonian():
    # -d(x1 dx4) = -dx14 lies outside the contraction image of the product form
    with pytest.raises(NotHamiltonian):
        ham_vector_field(W6, form(C6, 1, {(4,): "x1"}))


def test_sign_convention_flag():
    H = form(C3, 1, {(1,): "x3"})
    X = ham_vector_field(W3, H)
    Xf = ham_vector_field(W3, H, SIGN_FIN1)  # n = 2: (-1)^n dH = +dH
    assert Xf == -X
    c4 = chart(4)
    w4 = form(c4, 4, {(1, 2, 3, 4): 1})
    H4 = form(c4, 2, {(1, 2): "x3"})
    assert ham_vector_field(w4, H4, SIGN_FIN1) == ham_vector_field(w4, H4)


def test_equal_forms_share_one_factorization():
    hdw._factored_contraction.cache_clear()
    ch = omega_f("x2").chart
    H = form(ch, 1, {(5,): "x2^2/2 - x3", (6,): "x4 - x1"})  # X_H = e1 + e4
    fields = [ham_vector_field(omega_f("x2"), H) for _ in range(2)]
    assert hdw._factored_contraction.cache_info().hits == 1  # distinct objects, one entry
    same = omega_f(parse_expression("x2^2/x2", 6))  # equal, written differently
    fields.append(ham_vector_field(same, H))
    assert hdw._factored_contraction.cache_info().hits == 2
    assert fields[0] == fields[1] == fields[2] == multivec(ch, 1, {(1,): 1, (4,): 1})
    assert str(fields[0]) == str(fields[1]) == str(fields[2])
    hdw._factored_contraction.cache_clear()
    assert ham_vector_field(same, H) == fields[0]


def test_one_contraction_matrix_per_form(monkeypatch):
    built = []
    original = hdw.contraction_matrix

    def counting(w):
        built.append(w)
        return original(w)

    hdw._factored_contraction.cache_clear()
    monkeypatch.setattr(hdw, "contraction_matrix", counting)
    rng = random.Random(3)
    for _ in range(10):
        H = form(C3, 1, {(rng.randint(1, 3),): f"x{rng.randint(1, 3)}^2"})
        X = ham_vector_field(W3, H)
        assert hdw_residual(W3, X, H).is_zero
    assert len(built) == 1
    hdw._factored_contraction.cache_clear()


def test_not_hamiltonian_cases():
    # -dH = dx23 has rows of the contraction map, but i_e1 w puts dx45 beside it
    w = form(chart(5), 3, {(1, 2, 3): 1, (1, 4, 5): 1})
    with pytest.raises(NotHamiltonian):
        ham_vector_field(w, form(chart(5), 1, {(3,): "-x2"}))
    zero = form(C3, 3, {})
    with pytest.raises(NotHamiltonian):
        ham_vector_field(zero, form(C3, 1, {(1,): "x3"}))
    with pytest.raises(DegenerateForm):  # dH = 0, but the zero form is degenerate
        ham_vector_field(zero, form(C3, 1, {(1,): "x1"}))


def test_degenerate_form_after_consistency():
    w = form(C3, 2, {(1, 2): 1})  # kernel e3
    with pytest.raises(DegenerateForm):
        ham_vector_field(w, function_form(C3, "x1"))
    with pytest.raises(NotHamiltonian):  # -dx3 is no i_v w, whatever the kernel
        ham_vector_field(w, function_form(C3, "x3"))


def test_factorization_cache_is_bounded():
    hdw._factored_contraction.cache_clear()
    maxsize = hdw._factored_contraction.cache_info().maxsize
    H = form(C3, 1, {(1,): "x3"})
    for k in range(1, maxsize + 4):
        X = ham_vector_field(W3.scale(k), H)
        assert X == multivec(C3, 1, {(2,): Q(-1, k)})
        assert hdw._factored_contraction.cache_info().currsize <= maxsize
    assert hdw._factored_contraction.cache_info().currsize == maxsize


def test_residual_zero_for_solution():
    H = form(C3, 1, {(2,): "x1*x3"})
    X = ham_vector_field(W3, H)
    assert hdw_residual(W3, X, H).is_zero


def test_residual_multivector_couple():
    c4 = chart(4)
    w = form(c4, 4, {(1, 2, 3, 4): 1})
    X = multivec(c4, 2, {(1, 2): 1})
    H = form(c4, 1, {(4,): "-x3"})
    assert hdw_residual(w, X, H).is_zero
    Hp = H + form(c4, 1, {(2,): "x1"})
    assert hdw_residual(w, X, Hp) == form(c4, 2, {(1, 2): 1})


def test_residual_follows_the_solver_sign_conventions():
    H = form(C3, 1, {(2,): "x1*x3"})
    assert hdw_residual(W3, ham_vector_field(W3, H, SIGN_FIN1), H, SIGN_FIN1).is_zero
    c4 = chart(4)
    w4, H4 = form(c4, 4, {(1, 2, 3, 4): 1}), form(c4, 2, {(1, 2): "x3"})
    assert hdw_residual(w4, ham_vector_field(w4, H4, SIGN_FIN1), H4, SIGN_FIN1).is_zero
    with pytest.raises(ShapeError):
        hdw_residual(W3, ham_vector_field(W3, H), H, "bogus")


def test_residual_degree_check():
    with pytest.raises(DegreeError):
        hdw_residual(W3, multivec(C3, 2, {(1, 2): 1}), form(C3, 1, {(1,): 1}))


@pytest.mark.parametrize("n,fiber", [(n, N) for n in (1, 2, 3) for N in (1, 2, 3)])
def test_multiphase_identities(n, fiber):
    model = multiphase_forms(n, fiber)
    assert model.chart.dim == n + fiber + n * fiber + 1
    assert model.omega == -ext_d(model.theta)
    assert ext_d(model.omega).is_zero
    assert nondegenerate(model.omega)


def test_multiphase_small_cases_printed_forms():
    m11 = multiphase_forms(1, 1)
    # theta = p dx + p^1_1 dq on (x, q, p^1_1, p)
    assert m11.theta == form(m11.chart, 1, {(1,): "x4", (2,): "x3"})
    m21 = multiphase_forms(2, 1)
    ch = m21.chart
    assert m21.omega == form(ch, 3, {
        (1, 2, 6): -1,   # -dp ^ dx12
        (2, 3, 4): 1,    # -dp1 ^ dq ^ dx2
        (1, 3, 5): -1,   # +dp2 ^ dq ^ dx1
    })


def _random_multiphase_pair(rng, model):
    """A Hamiltonian pair built from a constant symmetry field."""
    ch = model.chart
    X = multivec(ch, 1, {
        (rng.randint(1, ch.dim),): Q(rng.randint(1, 3)),
        (rng.randint(1, ch.dim),): Q(rng.randint(-3, -1)),
    })
    closed = interior(X, model.omega)
    H = poincare_homotopy(closed).scale(-1)
    n = model.omega.degree - 1
    if n >= 2:
        H = H + ext_d(rand_form(rng, ch, n - 2, max_terms=2))
    return H


@pytest.mark.parametrize("n,fiber,count", [
    (1, 1, 50), (1, 2, 50), (2, 1, 50), (2, 2, 50),
    (1, 3, 25), (3, 1, 25), (2, 3, 8), (3, 2, 8), (3, 3, 8),
])
def test_hdw_roundtrip_random(n, fiber, count):
    model = multiphase_forms(n, fiber)
    rng = random.Random(1000 * n + fiber)
    for _ in range(count):
        H = _random_multiphase_pair(rng, model)
        X = ham_vector_field(model.omega, H)
        assert hdw_residual(model.omega, X, H).is_zero


def test_volterra_worked_example():
    model = multiphase_forms(2, 1)
    pdim = model.restricted_chart.dim
    ham = parse_expression("(x4^2 + x5^2)/2", pdim)  # (p1^2 + p2^2)/2
    base = chart(2)
    sec = SmoothMap(base, model.restricted_chart, (
        parse_expression("x1", 2),
        parse_expression("x2", 2),
        parse_expression("x1", 2),       # q = x1
        parse_expression("-1", 2),       # p1 = -1
        parse_expression("0", 2),        # p2 = 0
    ))
    res = hamilton_volterra_residual(model, ham, sec)
    assert all(r.is_zero for r in res)
    sec_bad = SmoothMap(base, model.restricted_chart, (
        parse_expression("x1", 2),
        parse_expression("x2", 2),
        parse_expression("x1^2", 2),     # q = x1^2
        parse_expression("-2*x1", 2),
        parse_expression("0", 2),
    ))
    res_bad = hamilton_volterra_residual(model, ham, sec_bad)
    assert res_bad[0] == RationalExpr.const(2, 2)
    assert all(r.is_zero for r in res_bad[1:])


def test_volterra_zero_hamiltonian_constant_section():
    model = multiphase_forms(2, 2)
    pdim = model.restricted_chart.dim
    comps = [parse_expression("x1", 2), parse_expression("x2", 2)]
    comps += [parse_expression("3", 2) for _ in range(2)]
    comps += [parse_expression("1/2", 2) for _ in range(4)]
    sec = SmoothMap(chart(2), model.restricted_chart, tuple(comps))
    res = hamilton_volterra_residual(model, RationalExpr.const(pdim, 0), sec)
    assert all(r.is_zero for r in res)


@pytest.mark.parametrize("n,fiber", [(n, N) for n in (1, 2, 3) for N in (1, 2, 3)])
def test_free_field_sections(n, fiber):
    model = multiphase_forms(n, fiber)
    rng = random.Random(n * 7 + fiber)
    slopes = [[Q(rng.randint(-3, 3)) for _ in range(n)] for _ in range(fiber)]
    ham, sec = free_field_section(model, slopes)
    res = hamilton_volterra_residual(model, ham, sec)
    assert all(r.is_zero for r in res)


def test_model_section_is_the_hand_built_map():
    """``section(q, p)`` lays out (x^mu, q^a, p^mu_a a-major) as the map built
    by hand, and ``free_field_section`` returns that map."""
    model = multiphase_forms(2, 3)
    q = [parse_expression(f"x1 + {a}*x2", 2) for a in range(1, 4)]
    p = [[parse_expression(f"{a}*x{mu}^2", 2) for mu in (1, 2)] for a in range(1, 4)]
    comps = [parse_expression("x1", 2), parse_expression("x2", 2)] + q + p[0] + p[1] + p[2]
    assert model.section(q, p) == SmoothMap(chart(2), model.restricted_chart, tuple(comps))
    slopes = [[Q(1), Q(-2)], [Q(0), Q(3)], [Q(1, 2), Q(5)]]
    _ham, sec = free_field_section(model, slopes)
    by_hand = [parse_expression("x1", 2), parse_expression("x2", 2)]
    by_hand += [parse_expression(f"{a}*x1 + {b}*x2", 2) for a, b in slopes]
    by_hand += [RationalExpr.const(2, -c) for row in slopes for c in row]
    assert sec == SmoothMap(chart(2), model.restricted_chart, tuple(by_hand))


def test_volterra_reduces_to_classical_hamilton():
    """For n = 1 the residuals coincide with the classical Hamilton residuals."""
    fiber = 2
    model = multiphase_forms(1, fiber)
    pdim = model.restricted_chart.dim  # (x, q1, q2, p1, p2)
    rng = random.Random(4)
    ham = parse_expression("x4^2/2 + x5^2/2 + x2*x3 + x1*x2", pdim)
    comps = [parse_expression("x1", 1)]
    qs = [parse_expression("x1^2", 1), parse_expression("x1 + 1", 1)]
    ps = [parse_expression("2*x1", 1), parse_expression("-x1", 1)]
    comps += qs + ps
    sec = SmoothMap(chart(1), model.restricted_chart, tuple(comps))
    res = hamilton_volterra_residual(model, ham, sec)
    # classical residuals computed independently
    subst = comps
    classical = []
    for a in range(fiber):
        classical.append(
            ham.partial(1 + 1 + a).substitute(subst) - ps[a].partial(1)
        )
    for a in range(fiber):
        classical.append(
            ham.partial(1 + fiber + 1 + a).substitute(subst) + qs[a].partial(1)
        )
    assert len(res) == len(classical)
    for got, want in zip(res, classical):
        assert got == want


def test_ham_curve_check():
    # X solving i_X dx12 = -d(x2) is -e1
    H = function_form(C2, "x2")
    X = ham_vector_field(W2, H)
    assert X == multivec(C2, 1, {(1,): -1})
    c1 = chart(1)
    psi = SmoothMap(c1, C2, (parse_expression("-x1", 1), parse_expression("5", 1)))
    gamma = coordinate_vector(c1, 1)
    pts = [[Q(t)] for t in (-2, 0, Q(1, 3), 7)]
    assert ham_curve_check(psi, gamma, X, pts) == [True] * 4
    psi_bad = SmoothMap(c1, C2, (parse_expression("x1", 1), parse_expression("5", 1)))
    assert ham_curve_check(psi_bad, gamma, X, pts) == [False] * 4
    assert ham_curve_check(psi, gamma.scale(2), X, pts) == [False] * 4


def _curve_fixtures():
    """(psi, gamma, X): the curves above, and a surface in R^3 whose tangent
    bivector field is pushed through the 2x2 minors of the Jacobian."""
    H = function_form(C2, "x2")
    X = ham_vector_field(W2, H)
    c1 = chart(1)
    psi = SmoothMap(c1, C2, (parse_expression("-x1", 1), parse_expression("5", 1)))
    psi_bad = SmoothMap(c1, C2, (parse_expression("x1", 1), parse_expression("5", 1)))
    gamma = coordinate_vector(c1, 1)
    surface = SmoothMap(C2, C3, (parse_expression("x1", 2), parse_expression("x2", 2),
                                 parse_expression("x1*x2", 2)))
    tangent = multivec(C2, 2, {(1, 2): 1})
    pushed = multivec(C3, 2, {(1, 2): 1, (1, 3): "x1", (2, 3): "-x2"})
    swapped = multivec(C3, 2, {(1, 2): 1, (1, 3): "x2", (2, 3): "-x1"})
    return [(psi, gamma, X), (psi_bad, gamma, X), (psi, gamma.scale(2), X),
            (surface, tangent, pushed), (surface, tangent, swapped),
            (surface, tangent.scale("x2"), pushed.scale("x2"))]


def test_curve_check_rejects_mismatched_operands():
    """A field on the wrong chart is a ChartMismatch and unequal degrees a
    DegreeError."""
    psi, gamma, X = _curve_fixtures()[0]
    cases = [(ChartMismatch, psi, gamma, coordinate_vector(C3, 1)),
             (ChartMismatch, psi, coordinate_vector(C2, 1), X),
             (DegreeError, psi, gamma, multivec(C2, 2, {(1, 2): 1}))]
    for kind, *operands in cases:
        with pytest.raises(kind):
            ham_curve_check(*operands, [[Q(0)]])


def test_pointwise_curve_check_verdicts_on_curves_and_a_surface():
    verdicts = []
    for psi, gamma, X in _curve_fixtures():
        pts = [[Q(t, 3)] + [Q(7, 5)] * (psi.source.dim - 1) for t in (-2, 1, 4)]
        pointwise = ham_curve_check(psi, gamma, X, pts)
        assert len(set(pointwise)) == 1
        verdicts.append(pointwise[0])
    assert verdicts == [True, False, False, True, False, True]
