"""The Chevalley-Eilenberg loops that plectic.liesym replaced by the boundary.

Kept as the reference for the differential tests: the Jacobi check sums the
three cyclic double brackets of each basis triple, the cochain differential
writes out (d phi)(T) = sum_{a<b} (-1)^(a+b) phi([t_a, t_b], ..) with its
own signs, and the bracket of two vectors is the dense triple sum over the
structure constants, each independently of ``CEOperators.boundary``.
"""
from fractions import Fraction as Q
from itertools import combinations

from plectic.errors import JacobiViolation
from plectic.exterior import sort_index_tuple


def reference_check_jacobi(c, d):
    """Raise JacobiViolation on the first failing triple i<j<k of the
    antisymmetric structure constants c (c[i][j] is [e_{i+1}, e_{j+1}])."""
    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                total = [Q(0)] * d
                for (a, b, e) in ((i, j, k), (j, k, i), (k, i, j)):
                    inner = c[a][b]
                    for m in range(d):
                        if inner[m]:
                            outer = c[m][e]
                            for l in range(d):
                                total[l] += inner[m] * outer[l]
                if any(total):
                    raise JacobiViolation(
                        f"Jacobi identity fails on (e{i+1}, e{j+1}, e{k+1})"
                    )


def reference_co_differential(g, cochain, k):
    """d_CE of a k-cochain {sorted tuple: value} of the Lie algebra g."""
    d = g.dim
    out = {}
    for T in combinations(range(1, d + 1), k + 1):
        acc = Q(0)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                sign = -1 if (a + b) % 2 else 1  # (-1)^(a+b), 1-based
                br = g.basis_bracket(T[a], T[b])
                rest = tuple(T[t] for t in range(k + 1) if t not in (a, b))
                for m in range(1, d + 1):
                    if not br[m - 1]:
                        continue
                    merged, s = sort_index_tuple((m,) + rest)
                    if merged is not None and cochain.get(merged):
                        acc += sign * br[m - 1] * s * cochain[merged]
        if acc:
            out[T] = acc
    return out


def reference_bracket(g, u, v):
    """[u, v] = sum_{i,j} u_i v_j c[i][j] as a dense triple loop."""
    d = g.dim
    out = [Q(0)] * d
    for i in range(d):
        if not u[i]:
            continue
        for j in range(d):
            if not v[j]:
                continue
            for k in range(d):
                if g.c[i][j][k]:
                    out[k] += u[i] * v[j] * g.c[i][j][k]
    return out
