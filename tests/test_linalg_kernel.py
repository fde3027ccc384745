"""The indexed elimination kernel of ``plectic.linalg`` against the scanning
kernel kept in ``linalg_reference``, and the kernel's shape checks.

The two kernels must choose the same pivots and make the same row
operations in the same order, so every reduced row and replayed right-hand
side is the same, value and printed form.  The indexed kernel lowers each
constant RationalExpr entry to its value, so its values are compared after
its lift, and the scanning kernel's after its own.
"""
import random
from fractions import Fraction as Q

import pytest

from plectic import catalog, classify, linalg
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression
from linalg_reference import reference_lower, reference_reduce, reference_solve
from util import rand_fraction, rand_poly

DIM = 2  # chart of the RationalExpr entries


def assert_same_value(old, old_lift, new, new_lift):
    old = old_lift(old) if old_lift else old
    new = new_lift(new) if new_lift else new
    assert type(old) is type(new) and old == new and str(old) == str(new)


def assert_same_reduction(matrix, ncols, below_only):
    """Pivots, row operations and reduced rows of the two kernels agree."""
    old_rows, old_lift = reference_lower(matrix)
    old_pivots, old_ops = reference_reduce(old_rows, ncols, below_only)
    new_rows, new_lift = linalg._lower(matrix)
    new_pivots, new_ops = linalg._reduce(new_rows, ncols, below_only)
    assert new_pivots == old_pivots and len(new_ops) == len(old_ops)
    for (p, pv, inv, factors), (q, qv, qinv, qfactors) in zip(old_ops, new_ops):
        assert p == q and [i for i, _f in factors] == [i for i, _f in qfactors]
        pairs = [(pv, qv), (inv, qinv)] + [(f, g) for (_i, f), (_j, g) in zip(factors, qfactors)]
        for old, new in pairs:
            assert_same_value(old, old_lift, new, new_lift)
    for old_row, new_row in zip(old_rows, new_rows):
        assert list(old_row) == list(new_row)  # the same columns in the same order
        for j in old_row:
            assert_same_value(old_row[j], old_lift, new_row[j], new_lift)
    return old_pivots


def test_property_indexed_kernel_is_the_scanning_kernel():
    """Seeded sparse matrices (dense or dict rows, some rows sums of others)
    over int, Fraction, GaussianRational, constant RationalExpr and constant
    beside symbolic RationalExpr entries, in both modes of ``_reduce``."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    gaussians = st.builds(GaussianRational, entries, entries)
    polys = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 1)), entries,
                            min_size=1, max_size=2).map(lambda t: RationalExpr(ScalarExpr(DIM, t)))
    zero = RationalExpr.const(DIM, 0)
    rings = {
        "int": (st.integers(-4, 4), 0),
        "fraction": (entries, Q(0)),
        "gaussian": (gaussians, GaussianRational(0)),
        "constant": (entries.map(lambda v: RationalExpr.const(DIM, v)), zero),
        "mixed": (st.one_of(entries.map(lambda v: RationalExpr.const(DIM, v)), polys), zero),
        "mixed_gaussian": (st.one_of(gaussians.map(lambda v: RationalExpr.const(DIM, v)), polys),
                           zero),
    }

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(st.sampled_from(sorted(rings)), st.integers(1, 7), st.integers(1, 6),
                      st.booleans(), st.data())
    def check(ring, nrows, ncols, dict_rows, data):
        values, zero = rings[ring]
        if ring.startswith("mixed"):
            nrows, ncols = min(nrows, 5), min(ncols, 5)
        matrix = [[data.draw(values) if data.draw(st.booleans()) else zero
                   for _ in range(ncols)] for _ in range(nrows)]
        for _ in range(data.draw(st.integers(0, 2))):  # dependent rows cancel
            a, b = data.draw(st.integers(0, nrows - 1)), data.draw(st.integers(0, nrows - 1))
            matrix.insert(data.draw(st.integers(0, len(matrix))),
                          [x + y for x, y in zip(matrix[a], matrix[b])])
        if dict_rows:
            matrix = [{j: v for j, v in enumerate(row) if v} for row in matrix]
        for below_only in (False, True):
            assert_same_reduction(matrix, ncols, below_only)

    check()


def captured_system(w, monkeypatch):
    """The sparse rows and column count that ``extract_acs(w)`` eliminates."""
    seen = []
    kernel = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda rows, ncols=None: seen.append((rows, ncols)) or kernel(rows, ncols))
    classify.extract_acs(w)
    monkeypatch.undo()
    ((rows, ncols),) = seen
    return rows, ncols


def test_extract_acs_systems_reduce_as_by_scanning(monkeypatch):
    """The dim-8 system of Re(dz1^..^dz4) (624 x 64, rank 62, constant
    entries) and the symbolic one of x1 * Re(dz1^dz2^dz3)."""
    rows, ncols = captured_system(catalog.complex_volume_re(4), monkeypatch)
    assert (len(rows), ncols) == (624, 64)
    for below_only in (False, True):
        assert len(assert_same_reduction(rows, ncols, below_only)) == 62
    w = catalog.complex_volume_re(3)
    x1 = parse_expression("x1", 6)
    w = type(w)(w.chart, w.degree, {idx: x1 * c for idx, c in w.coeffs.items()})
    rows, ncols = captured_system(w, monkeypatch)
    assert ncols == 36
    assert_same_reduction(rows, ncols, False)


def mixed_matrix(rng, nrows, ncols, rank):
    """A seeded matrix of the given rank: constant RationalExprs, but for a
    first row that a polynomial scales."""
    left = [[rand_fraction(rng) for _ in range(rank)] for _ in range(nrows)]
    right = [[rand_fraction(rng) for _ in range(ncols)] for _ in range(rank)]
    matrix = [[RationalExpr.const(DIM, sum((a * b for a, b in zip(row, col)), Q(0)))
               for col in zip(*right)] for row in left]
    g = rand_poly(rng, DIM, max_terms=2, max_deg=1)
    matrix[0] = [v * g for v in matrix[0]]  # a scaled row keeps the rank
    return matrix


@pytest.mark.parametrize("seed", range(6))
def test_solve_prints_as_the_scanning_replay(seed):
    """Constant and mixed matrices with symbolic, constant and mixed
    right-hand sides, consistent and not, solved fresh and from a Factored."""
    rng = random.Random(2900 + seed)
    const = [[RationalExpr.const(DIM, rand_fraction(rng)) for _ in range(4)] for _ in range(5)]
    for matrix in (const, mixed_matrix(rng, 5, 4, 3)):
        factored = linalg.Factored(matrix)
        for rhs in ([rand_poly(rng, DIM) for _ in range(5)],
                    [RationalExpr.const(DIM, rand_fraction(rng)) for _ in range(5)],
                    [row[0] * rand_fraction(rng) + row[2] for row in matrix]):
            want = reference_solve(matrix, rhs)
            for got in (linalg.solve(matrix, rhs), linalg.solve(factored, rhs)):
                assert got == want and str(got) == str(want)
                assert [type(v) for v in got[0] or ()] == [type(v) for v in want[0] or ()]


def test_rank_takes_the_column_count_of_dict_rows():
    # regression: an empty first row read as "no columns", so this rank was 0
    assert linalg.rank([{}, {0: 1}], 1) == 1
    assert linalg.rank([{}, {2: 1}, {0: 1, 2: 1}], 3) == 2
    with pytest.raises(ValueError):
        linalg.rank([{}, {0: 1}])


@pytest.mark.parametrize("call", [
    lambda: linalg.eliminate([{5: 1}]),  # dict rows without ncols
    lambda: linalg.nullspace([{0: 1}]),
    lambda: linalg.eliminate([{5: 1}], ncols=3),  # a column past ncols
    lambda: linalg.nullspace([{-1: 1}], 2),
    lambda: linalg.nullspace([[1, 2], [3]]),  # ragged dense rows
    lambda: linalg.rank([[1], [2, 3]]),
    lambda: linalg.nullspace([[1, 2]], 3),
    lambda: linalg.solve([[1, 0], [0, 1]], [1, 2, 3]),  # rhs of another length
    lambda: linalg.solve([[1, 0], [0, 1]], [1]),
    lambda: linalg.solve(linalg.Factored([[1, 0], [0, 1]]), [1]),
    lambda: linalg.mat_inverse([]),  # not a non-empty square matrix
    lambda: linalg.mat_inverse([[1, 2, 3], [4, 5, 6]]),
    lambda: linalg.det([[1, 2, 3, 4, 5]]),
    lambda: linalg.det([[1, 2, 0, 0], [3, 4, 5], [0, 1, 2, 3], [1, 0, 0, 1]]),
], ids=["dict-no-ncols", "dict-no-ncols-nullspace", "column-past-ncols", "negative-column",
        "ragged", "ragged-rank", "short-row", "long-rhs", "short-rhs", "short-rhs-factored",
        "empty-inverse", "wide-inverse", "wide-det", "ragged-det"])
def test_a_bad_shape_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_shapes_that_fit_still_eliminate():
    assert linalg.eliminate([{5: 1}], ncols=6)[2] == [5]
    assert linalg.nullspace([{1: 1}], 2) == [[1, 0]]
    assert linalg.solve([[1, 0], [0, 1]], [1, 2]) == ([1, 2], [])
