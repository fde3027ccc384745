"""Differential tests of the elimination kernel in ``plectic.linalg``.

The same constant matrices go through the kernel as Fractions, as constant
RationalExprs and as GaussianRationals; every answer must agree across the
three rings and with sympy's exact ``rref``/``nullspace``.  Symbolic
right-hand sides and symbolic matrices are checked by substituting the
answer back (A x == b, A k == 0) and against sympy over the fraction field.
"""
import random
from fractions import Fraction as Q
from functools import reduce
from math import lcm
from operator import mul

import pytest

from plectic import linalg
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression
from util import rand_fraction, rand_poly

sympy = pytest.importorskip("sympy")

DIM = 2  # chart of the RationalExpr entries
RINGS = {
    "fraction": lambda v: v,
    "rational_expr": lambda v: RationalExpr.const(DIM, v),
    "gaussian": lambda v: GaussianRational(v),
}


def to_q(v):
    """A constant of any of the three rings as a Fraction."""
    if isinstance(v, RationalExpr):
        v = v.constant_value()
    if isinstance(v, GaussianRational):
        assert v.im == 0
        v = v.re
    assert isinstance(v, Q)
    return v


def in_ring(ring, matrix):
    return [[RINGS[ring](v) for v in row] for row in matrix]


def dense(rows, pivots, cols):
    """The reduced rows of ``eliminate`` as a dense Fraction matrix."""
    out = [[to_q(row[j]) if j in row else Q(0) for j in range(cols)] for row in rows]
    for r, c in enumerate(pivots):
        assert c not in rows[r]
        out[r][c] = Q(1)
    return out


def sym(matrix):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                         for row in matrix])


def from_sym(m):
    return [[Q(int(v.p), int(v.q)) for v in m.row(i)] for i in range(m.rows)]


def rand_matrix(rng, rows, cols, rank=None):
    """A seeded Fraction matrix, of the given rank when one is asked for."""
    if rank is None:
        return [[rand_fraction(rng) for _ in range(cols)] for _ in range(rows)]
    left = [[rand_fraction(rng) for _ in range(rank)] for _ in range(rows)]
    right = [[rand_fraction(rng) for _ in range(cols)] for _ in range(rank)]
    return [[sum((left[i][k] * right[k][j] for k in range(rank)), Q(0))
             for j in range(cols)] for i in range(rows)]


def cases():
    rng = random.Random(20181)
    out = [
        ("zero", [[Q(0)] * 4 for _ in range(3)]),
        ("identity", [[Q(int(i == j)) for j in range(4)] for i in range(4)]),
        ("one_row", [[Q(0), Q(2), Q(-1)]]),
        ("one_col", [[Q(0)], [Q(3)], [Q(1, 2)]]),
        ("row_swaps", [[Q(v) for v in row] for row in
                       ((0, 1, 2, 3), (1, 0, 1, 5), (2, 1, 0, 1), (1, 1, 1, 0))]),
    ]
    for k, (rows, cols) in enumerate([(3, 3), (4, 4), (5, 5), (3, 5), (6, 4), (2, 7)]):
        out.append((f"full{k}", rand_matrix(rng, rows, cols)))
    for k, (rows, cols, r) in enumerate([(4, 4, 2), (5, 3, 1), (3, 6, 2), (6, 6, 4), (5, 5, 0)]):
        out.append((f"rank{r}_{k}", rand_matrix(rng, rows, cols, rank=r)))
    sparse = [[Q(0)] * 7 for _ in range(9)]
    for _ in range(12):
        sparse[rng.randrange(9)][rng.randrange(7)] = rand_fraction(rng) or Q(1)
    out.append(("sparse", sparse))
    return out


CASES = cases()
IDS = [name for name, _ in CASES]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name,matrix", CASES, ids=IDS)
def test_eliminate_is_sympy_rref(ring, name, matrix):
    cols = len(matrix[0])
    rows, _, pivots = linalg.eliminate(in_ring(ring, matrix))
    ref, ref_pivots = sym(matrix).rref()
    assert pivots == list(ref_pivots)
    assert dense(rows, pivots, cols) == from_sym(ref)
    assert linalg.rank(in_ring(ring, matrix)) == len(ref_pivots)


def as_dict_rows(ring, matrix):
    """``matrix`` in the ring as dict rows {col: entry}, with an all-zero row
    (an explicit zero entry, which is dropped) and a last column that no row
    names; and the dense Fraction matrix they stand for."""
    zero = RINGS[ring](Q(0))
    rows = [{j: v for j, v in enumerate(row) if v} for row in in_ring(ring, matrix)]
    rows.insert(len(rows) // 2, {0: zero})
    dense = [row + [Q(0)] for row in matrix]
    dense.insert(len(dense) // 2, [Q(0)] * (len(matrix[0]) + 1))
    return rows, dense


def assert_dict_rows_nullspace(ring, matrix):
    """The kernel of the dict rows, over ncols columns, is the dense call's:
    the same basis with the same printed entries, and sympy's; the column
    that no row names comes back free."""
    rows, dense = as_dict_rows(ring, matrix)
    ncols = len(dense[0])
    basis = linalg.nullspace(rows, ncols)
    want = linalg.nullspace(in_ring(ring, dense))
    assert basis == want and str(basis) == str(want)
    assert [[to_q(v) for v in vec] for vec in basis] == [
        [row[0] for row in from_sym(k)] for k in sym(dense).nullspace()]
    assert [Q(0)] * (ncols - 1) + [Q(1)] in [[to_q(v) for v in vec] for vec in basis]


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name,matrix", CASES, ids=IDS)
def test_nullspace_is_sympy_nullspace(ring, name, matrix):
    basis = linalg.nullspace(in_ring(ring, matrix))
    ref = sym(matrix).nullspace()
    assert [[to_q(v) for v in vec] for vec in basis] == [
        [row[0] for row in from_sym(k)] for k in ref]
    assert_dict_rows_nullspace(ring, matrix)


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name,matrix", CASES, ids=IDS)
def test_solve_matches_sympy(ring, name, matrix):
    rng = random.Random(name)
    rows, cols = len(matrix), len(matrix[0])
    consistent = [sum((matrix[i][j] * x for j, x in enumerate(
        [rand_fraction(rng) for _ in range(cols)])), Q(0)) for i in range(rows)]
    generic = [rand_fraction(rng) or Q(1) for _ in range(rows)]
    for rhs in (consistent, generic):
        sol, free = linalg.solve(in_ring(ring, matrix), in_ring(ring, [rhs])[0])
        A, b = sym(matrix), sym([[v] for v in rhs])
        if A.rank() < A.row_join(b).rank():
            assert sol is None and free == []
            continue
        ref, params = A.gauss_jordan_solve(b)[:2]
        ref = ref.subs({p: 0 for p in params})
        assert [to_q(v) for v in sol] == [row[0] for row in from_sym(ref)]
        assert free == [c for c in range(cols) if c not in A.rref()[1]]


def test_inconsistent_system():
    A = [[Q(1), Q(2)], [Q(2), Q(4)]]
    for ring in RINGS:
        assert linalg.solve(in_ring(ring, A), in_ring(ring, [[Q(1), Q(3)]])[0]) == (None, [])


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("name,matrix", [c for c in CASES if len(c[1]) == len(c[1][0])],
                         ids=[n for n, m in CASES if len(m) == len(m[0])])
def test_inverse_and_det_match_sympy(ring, name, matrix):
    inv = linalg.mat_inverse(in_ring(ring, matrix))
    A = sym(matrix)
    assert to_q(linalg.det(in_ring(ring, matrix))) == from_sym(sympy.Matrix([[A.det()]]))[0][0]
    if A.det() == 0:
        assert inv is None
    else:
        assert [[to_q(v) for v in row] for row in inv] == from_sym(A.inv())


def test_empty_matrices():
    assert linalg.eliminate([]) == ([], None, [])
    assert linalg.rank([]) == 0 and linalg.rank([[]]) == 0
    assert linalg.nullspace([]) == [] and linalg.nullspace([[]]) == []
    # dict rows name their columns through ncols, so no row is no equation
    assert linalg.nullspace([], 2) == linalg.nullspace([{}], 2) == [[1, 0], [0, 1]]


def test_results_stay_in_the_callers_ring():
    matrix = rand_matrix(random.Random(5), 4, 4)
    for ring, kind in (("fraction", Q), ("rational_expr", RationalExpr),
                       ("gaussian", GaussianRational)):
        A = in_ring(ring, matrix)
        assert all(type(v) is kind for row in linalg.mat_inverse(A) for v in row)
        assert type(linalg.det(A)) is kind
        assert all(type(v) is kind for v in linalg.solve(A, A[0])[0])


def test_gaussian_matrix_matches_sympy():
    rng = random.Random(7)
    G = [[GaussianRational(rand_fraction(rng), rand_fraction(rng)) for _ in range(4)]
         for _ in range(4)]
    A = sympy.Matrix([[sympy.Rational(v.re.numerator, v.re.denominator)
                       + sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
                       for v in row] for row in G])
    inv = linalg.mat_inverse(G)
    ref = A.inv()
    for i in range(4):
        for j in range(4):
            re, im = sympy.expand(ref[i, j]).as_real_imag()
            assert inv[i][j] == GaussianRational(Q(int(re.p), int(re.q)),
                                                 Q(int(im.p), int(im.q)))
    d = linalg.det(G)
    re, im = sympy.expand(A.det()).as_real_imag()
    assert d == GaussianRational(Q(int(re.p), int(re.q)), Q(int(im.p), int(im.q)))


def mat_vec(A, x):
    return [sum((a * v for a, v in zip(row, x)), RationalExpr.const(DIM, 0)) for row in A]


@pytest.mark.parametrize("seed", range(4))
def test_constant_matrix_with_symbolic_rhs(seed):
    rng = random.Random(seed)
    matrix = rand_matrix(rng, 5, 4, rank=3)
    A = in_ring("rational_expr", matrix)
    x = [rand_poly(rng, DIM) for _ in range(4)]
    b = mat_vec(A, x)
    sol, free = linalg.solve(A, b)
    assert sol is not None and len(free) == 1
    assert mat_vec(A, sol) == b
    assert all(not sol[c] for c in free)
    # a rhs off the column space is rejected
    bad = list(b)
    bad[0] = bad[0] + RationalExpr.variable(DIM, 1)
    assert linalg.rank([row + [v] for row, v in zip(A, bad)]) == 4
    assert linalg.solve(A, bad) == (None, [])


def to_sympy(e: RationalExpr):
    return sympy.sympify(str(e).replace("^", "**"))


def small_poly(rng):
    return rand_poly(rng, DIM, max_terms=2, max_deg=1)


@pytest.mark.parametrize("seed", range(4))
def test_symbolic_matrix(seed):
    rng = random.Random(100 + seed)
    A = [[small_poly(rng) for _ in range(4)] for _ in range(2)]
    A.append([a + b for a, b in zip(A[0], A[1])])  # rank 2 at most
    basis = linalg.nullspace(A)
    zero = RationalExpr.const(DIM, 0)
    assert all(v == zero for k in basis for v in mat_vec(A, k))
    # dict rows, their entries in reverse column order, give the same printed basis
    rows = [{j: row[j] for j in reversed(range(4)) if row[j]} for row in A]
    assert str(linalg.nullspace(rows, 4)) == str(basis)
    S = sympy.Matrix([[to_sympy(v) for v in row] for row in A])
    ref = S.nullspace(simplify=True)
    assert len(basis) == len(ref) == 4 - linalg.rank(A)
    for k, r in zip(basis, ref):
        assert all(sympy.cancel(to_sympy(a) - b) == 0 for a, b in zip(k, r))
    x = [small_poly(rng) for _ in range(4)]
    b = mat_vec(A, x)
    sol, _free = linalg.solve(A, b)
    assert mat_vec(A, sol) == b


def test_symbolic_det_matches_sympy():
    rng = random.Random(3)
    A = [[RationalExpr.const(DIM, rand_fraction(rng)) for _ in range(4)] for _ in range(4)]
    for i in range(4):  # a symbolic entry in every row, as in a Jacobian
        A[i][rng.randrange(4)] = small_poly(rng)
    S = sympy.Matrix([[to_sympy(v) for v in row] for row in A])
    assert sympy.cancel(to_sympy(linalg.det(A)) - S.det()) == 0


def elimination_det(matrix):
    """det through the elimination kernel alone: the pivots of ``_reduce``
    and the parity of its row swaps, whatever the matrix's shape."""
    rows, lift = linalg._lower(matrix)
    pivots, ops = linalg._reduce(rows, len(matrix), below_only=True)
    if len(pivots) < len(matrix):
        return 0
    result = reduce(mul, (pv for _p, pv, _inv, _factors in ops))
    if sum(p != r for r, (p, *_rest) in enumerate(ops)) % 2:
        result = -result
    return lift(result) if lift else result


def to_sympy_entry(v):
    if isinstance(v, RationalExpr):
        return to_sympy(v)
    if isinstance(v, GaussianRational):
        return sympy.Rational(v.re.numerator, v.re.denominator) + \
            sympy.I * sympy.Rational(v.im.numerator, v.im.denominator)
    return sympy.Rational(Q(v).numerator, Q(v).denominator)


def test_property_triangular_det_is_the_diagonal_product(monkeypatch):
    """An upper, lower or diagonal matrix (a zero on the diagonal included)
    gets the product of its diagonal, with no elimination; it agrees with
    the elimination kernel and with sympy, as every non-triangular matrix
    does, over int, Fraction, GaussianRational and RationalExpr entries."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    polys = st.dictionaries(st.tuples(st.integers(0, 1), st.integers(0, 1)), entries,
                            min_size=1, max_size=2).map(lambda t: RationalExpr(ScalarExpr(DIM, t)))
    rings = {
        "int": (st.integers(-4, 4), 0),
        "fraction": (entries, Q(0)),
        "gaussian": (st.builds(GaussianRational, entries, entries), GaussianRational(0)),
        "rational_expr": (st.one_of(entries.map(lambda v: RationalExpr.const(DIM, v)), polys),
                          RationalExpr.const(DIM, 0)),
    }
    outside = {"upper": lambda i, j: i > j, "lower": lambda i, j: i < j,
               "diagonal": lambda i, j: i != j, "full": lambda i, j: False}
    kernel = linalg._reduce

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 5), st.sampled_from(sorted(outside)),
                      st.sampled_from(sorted(rings)), st.data())
    def check(n, shape, ring, data):
        values, zero = rings[ring]
        if ring == "rational_expr" and shape == "full":
            n = min(n, 4)
        matrix = [[zero if outside[shape](i, j) else data.draw(values) for j in range(n)]
                  for i in range(n)]
        if shape != "full" and data.draw(st.booleans()):
            k = data.draw(st.integers(0, n - 1))
            matrix[k][k] = zero
        eliminations = []
        monkeypatch.setattr(linalg, "_reduce",
                            lambda *args, **kw: eliminations.append(1) or kernel(*args, **kw))
        got = linalg.det(matrix)
        monkeypatch.undo()
        if shape != "full":
            assert not eliminations
            assert got == reduce(mul, (matrix[i][i] for i in range(n)))
        assert got == elimination_det(matrix)
        want = sympy.Matrix([[to_sympy_entry(v) for v in row] for row in matrix]).det()
        assert sympy.cancel(to_sympy_entry(got) - want) == 0

    check()


def test_parsed_quotients_eliminate():
    A = [[parse_expression(s, DIM) for s in row] for row in (("x1", "x1^2/x2"), ("x2", "x1"))]
    assert linalg.rank(A) == 1
    (k,) = linalg.nullspace(A)
    assert all(v == 0 for v in mat_vec(A, k))


def test_property_rref_matches_sympy():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(st.integers(1, 4).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), min_size=1, max_size=5)))
    def check(matrix):
        ref, ref_pivots = sym(matrix).rref()
        for ring in RINGS:
            rows, _, pivots = linalg.eliminate(in_ring(ring, matrix))
            assert pivots == list(ref_pivots)
            assert dense(rows, pivots, len(matrix[0])) == from_sym(ref)
            basis = linalg.nullspace(in_ring(ring, matrix))
            assert len(basis) == len(matrix[0]) - len(pivots)
            assert_dict_rows_nullspace(ring, matrix)

    check()


def factored_state(F):
    """Everything a Factored keeps, as printed text."""
    return (str(list(F)), F.pivots[:], F.free[:], str(F.reduced), str(F.ops))


def replay_cases():
    rng = random.Random(41)
    fractions = rand_matrix(rng, 5, 4, rank=3)
    constant = in_ring("rational_expr", rand_matrix(rng, 5, 4, rank=2))
    symbolic = [[small_poly(rng) for _ in range(4)] for _ in range(2)]
    symbolic.append([a + b for a, b in zip(*symbolic)])
    return [
        ("fraction", fractions, lambda: [rand_fraction(rng) for _ in range(4)],
         lambda: [rand_fraction(rng) or Q(1) for _ in range(5)]),
        ("constant_symbolic_rhs", constant, lambda: [rand_poly(rng, DIM) for _ in range(4)],
         lambda: [rand_poly(rng, DIM) for _ in range(5)]),
        ("symbolic", symbolic, lambda: [small_poly(rng) for _ in range(4)],
         lambda: [small_poly(rng) for _ in range(3)]),
    ]


@pytest.mark.parametrize("name,matrix,solution,generic", replay_cases(),
                         ids=[c[0] for c in replay_cases()])
def test_factored_replay_is_a_fresh_solve(name, matrix, solution, generic):
    F = linalg.Factored(matrix)
    before = factored_state(F)
    assert list(F) == matrix and F.free  # every case has free columns
    dot = (lambda row, x: sum(a * v for a, v in zip(row, x))) if name == "fraction" else None
    inconsistent = 0
    for k in range(20):
        if k % 2:
            rhs = generic()
        else:
            x = solution()
            rhs = [dot(row, x) for row in matrix] if dot else mat_vec(matrix, x)
        sol, free = linalg.solve(F, rhs)
        assert (sol, free) == linalg.solve(matrix, rhs)
        assert str(sol) == str(linalg.solve(matrix, rhs)[0])  # the same printed entries
        if sol is None:
            inconsistent += 1
            assert k % 2
        else:
            assert free == F.free
            assert ([dot(row, sol) for row in matrix] if dot else mat_vec(matrix, sol)) == rhs
    assert inconsistent >= 5
    assert factored_state(F) == before


def test_factored_rank_and_nullspace_agree():
    rng = random.Random(9)
    matrix = in_ring("rational_expr", rand_matrix(rng, 6, 5, rank=3))
    F = linalg.Factored(matrix)
    assert len(F.pivots) == linalg.rank(matrix) == 3
    assert len(F.free) == len(linalg.nullspace(matrix)) == 2


def test_symbolic_pivots_do_not_swell():
    # regression: pivots were inverted as (p/p)/p; entries reached 40,810 characters
    rng = random.Random(100)
    A = [[rand_poly(rng, DIM) for _ in range(4)] for _ in range(3)]
    A.append([a + b for a, b in zip(A[0], A[1])])
    (k,) = linalg.nullspace(A)
    assert max(len(str(v)) for v in k) <= 5000
    assert all(not v for v in mat_vec(A, k))


def test_gaussian_rhs_on_a_symbolic_matrix():
    x1 = parse_expression("x1", DIM)
    sol, free = linalg.solve([[x1], [x1]], [GaussianRational(1)] * 2)
    assert free == [] and sol == [1 / x1]
    sol, _free = linalg.solve([[x1], [x1]], [GaussianRational(0, 1), GaussianRational(1)])
    assert sol is None


def leaves(x):
    """The scalars in a nest of lists, tuples and dicts."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, (list, tuple)):
        return [v for item in x for v in leaves(item)]
    return [x]


def test_int_entries_stay_exact():
    # regression: pivots of int matrices were inverted as 1 / pv, a float
    assert linalg.nullspace([[2, 1], [4, 2]]) == [[Q(-1, 2), Q(1)]]
    det = linalg.det([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 1], [1, 0, 0, 2]])
    assert det == 15 and type(det) is Q
    assert linalg.solve([[3]], [1]) == ([Q(1, 3)], [])
    assert linalg.mat_inverse([[2, 0], [0, 4]]) == [[Q(1, 2), 0], [0, Q(1, 4)]]
    for result in (linalg.nullspace([[2, 1], [4, 2]]), linalg.solve([[3]], [1]),
                   linalg.mat_inverse([[2, 0], [0, 4]]), linalg.nullspace([[0, 0]])):
        assert all(type(v) is Q for v in leaves(result))


@pytest.mark.parametrize("name,matrix", CASES, ids=IDS)
def test_int_matrix_agrees_with_fraction_matrix(name, matrix):
    D = lcm(*(v.denominator for row in matrix for v in row))
    ints = [[int(v * D) for v in row] for row in matrix]
    fractions = [[Q(v) for v in row] for row in ints]
    calls = [linalg.eliminate, linalg.nullspace, linalg.rank,
             lambda A: linalg.solve(A, [row[0] for row in A]),
             lambda A: linalg.solve(A, [1] * len(A))]
    if len(matrix) == len(matrix[0]):
        calls += [linalg.det, linalg.mat_inverse]
    for call in calls:
        got = call(ints)
        assert got == call(fractions)
        assert not any(isinstance(v, float) for v in leaves(got))


def test_nullspace_builds_no_unit_without_a_free_column(monkeypatch):
    """The zero and one of a basis vector are built only when a column is free."""
    x1 = parse_expression("x1", DIM)
    one = RationalExpr.const(DIM, 1)

    def refuse(x):
        raise AssertionError("zero built")

    monkeypatch.setattr(linalg, "_zero_like", refuse)
    assert linalg.nullspace([[x1, one], [one, x1 * x1]]) == []
    with pytest.raises(AssertionError, match="zero built"):
        linalg.nullspace([[x1, one]])


def test_solve_on_a_symbolic_matrix_lifts_every_entry():
    """A solution over a matrix with a RationalExpr entry is all RationalExpr,
    however the pivots fall and whatever the ring of the right-hand side."""
    x1 = parse_expression("x1", DIM)
    c = lambda v: RationalExpr.const(DIM, v)
    sol, free = linalg.solve([[c(2), x1], [c(0), c(3)]], [Q(1), Q(3)])
    assert free == [] and sol == [(1 - x1) / 2, c(1)]
    assert [type(v) for v in sol] == [RationalExpr, RationalExpr]


def test_solve_reuses_the_callers_zero():
    x1 = parse_expression("x1", DIM)
    zero = RationalExpr.const(DIM, 0)
    A = in_ring("rational_expr", [[Q(1), Q(0), Q(2)], [Q(0), Q(1), Q(0)]])
    sol, free = linalg.solve(A, [x1, zero])
    assert free == [2] and sol == [x1, zero, zero]
    assert sol[1] is zero and sol[2] is zero
    sol, _free = linalg.solve(A, [x1, x1])  # no zero to reuse
    assert str(sol) == str([x1, x1, x1 - x1])


def test_kernel_unit_is_the_rings_one():
    """A free entry of a symbolic basis vector is the ring's 1, not x/x of a
    first nonzero entry; a singular inverse is still None."""
    x1 = parse_expression("x1", DIM)
    one = RationalExpr.const(DIM, 1)
    for rows, ncols in (([[x1, x1 * x1]], None), ([{1: x1 * x1, 0: x1}], 2)):
        (vec,) = linalg.nullspace(rows, ncols)
        assert str(vec[1]) == "1" and vec[1] == one and type(vec[1]) is RationalExpr
        assert vec[0] == -x1
    G = GaussianRational(1, 2)
    assert linalg.nullspace([[G, G]]) == [[-GaussianRational(1), GaussianRational(1)]]
    assert linalg.mat_inverse([[x1, x1], [x1, x1]]) is None
    assert linalg.mat_inverse([[0, 0], [0, 0]]) is None
    assert str(linalg.mat_inverse([[x1]])) == str([[one / x1]])
