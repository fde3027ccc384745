"""The Lie n-algebra of observables of an n-plectic chart.

Observables of top degree n-1 carry their (unique) Hamiltonian vector field,
solved once at construction.  The brackets are

    l_k(a_1,..,a_k) = -(-1)^(k(k+1)/2) i_{X_k} ... i_{X_1} w,

extended by zero on lower-degree arguments (a warning is emitted instead of
an error).  The structural relation checked here is d(l_k) = l_1 l_{k+1}
with the Chevalley-Eilenberg-style operator

    (d l_k)(a_1,..,a_{k+1}) =
        sum_{i<j} (-1)^(i+j) l_k(l_2(a_i,a_j), .. without a_i, a_j ..).
"""
from __future__ import annotations

import warnings
from typing import Optional, Sequence

from .errors import ChartMismatch, DegreeError
from .exterior import DiffForm, MultiVec, ext_d, interior
from .hdw import ham_vector_field
from .record import Record


class TrivialExtensionWarning(UserWarning):
    """l_k met a lower-degree argument and returned the zero form."""


class Observable(Record):
    """A form of degree <= n-1; top degree carries its Hamiltonian field."""

    __slots__ = ("form", "ham_field")

    def __init__(self, form: DiffForm, ham_field: Optional[MultiVec] = None):
        super().__init__(form, ham_field)

    @property
    def degree(self) -> int:
        return self.form.degree

    @property
    def is_top(self) -> bool:
        return self.ham_field is not None


def make_observable(w: DiffForm, alpha: DiffForm) -> Observable:
    """Wrap a form as an observable, solving for its field at top degree."""
    if alpha.chart != w.chart:
        raise ChartMismatch("observable lives on a different chart")
    n = w.degree - 1
    if alpha.degree > n - 1:
        raise DegreeError(f"observables have degree at most {n - 1}")
    if alpha.degree == n - 1:
        return Observable(alpha, ham_vector_field(w, alpha))
    return Observable(alpha, None)


def _bracket_sign(k: int) -> int:
    return -1 if (k * (k + 1) // 2) % 2 == 0 else 1


def l_k(w: DiffForm, args: Sequence[Observable]) -> DiffForm:
    """The k-ary bracket on Hamiltonian top-degree observables."""
    k = len(args)
    n = w.degree - 1
    if not 2 <= k <= n + 1:
        raise DegreeError(f"bracket arity {k} outside 2..{n + 1}")
    if any(not a.is_top for a in args):
        warnings.warn(
            "bracket extended by zero on lower-degree arguments",
            TrivialExtensionWarning,
            stacklevel=2,
        )
        return DiffForm(w.chart, n + 1 - k, {})
    res = w
    for a in args:
        res = interior(a.ham_field, res)
    sign = _bracket_sign(k)
    return res if sign > 0 else -res


def l2(w: DiffForm, a: Observable, b: Observable) -> DiffForm:
    return l_k(w, [a, b])


def _ce_sum(w: DiffForm, k: int, args: Sequence[Observable]) -> DiffForm:
    """sum_{i<j} (-1)^(i+j) l_k(l_2(a_i,a_j), rest), 1-based signs."""
    n = w.degree - 1
    total = DiffForm(w.chart, n + 1 - k, {})
    m = len(args)
    for i in range(m):
        for j in range(i + 1, m):
            inner = make_observable(w, l2(w, args[i], args[j]))
            rest = [args[t] for t in range(m) if t not in (i, j)]
            term = l_k(w, [inner] + rest)
            if ((i + 1) + (j + 1)) % 2:
                term = -term
            total = total + term
    return total


def linfty_relation_residual(w: DiffForm, k: int,
                             args: Sequence[Observable]) -> DiffForm:
    """(d l_k)(args) - l_1(l_{k+1}(args)); zero for a genuine n-plectic form."""
    n = w.degree - 1
    if not 2 <= k <= n + 1:
        raise DegreeError(f"relation index {k} outside 2..{n + 1}")
    if len(args) != k + 1:
        raise DegreeError(f"relation for l_{k} needs {k + 1} arguments")
    lhs = _ce_sum(w, k, args)
    if k + 1 <= n + 1:
        higher = l_k(w, list(args))
        # l_1 = d in degrees <= n-2; the k >= 2 range keeps us there
        lhs = lhs - ext_d(higher)
    return lhs


def jacobiator_identity_residual(w: DiffForm, a: Observable, b: Observable,
                                 c: Observable) -> DiffForm:
    """Deviation of l_2 from Jacobi against the exact trilinear correction."""
    for arg in (a, b, c):
        if not arg.is_top:
            raise DegreeError("Jacobiator needs Hamiltonian top-degree forms")
    bc = make_observable(w, l2(w, b, c))
    ab = make_observable(w, l2(w, a, b))
    ac = make_observable(w, l2(w, a, c))
    lhs = l2(w, a, bc) - l2(w, ab, c) - l2(w, b, ac)
    tri = interior(c.ham_field, interior(b.ham_field, interior(a.ham_field, w)))
    return lhs + ext_d(tri)
