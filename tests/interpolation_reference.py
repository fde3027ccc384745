"""The Lagrange interpolation that plectic.mover.Poly.interpolate replaced.

Kept as the reference for the differential tests: it multiplies out each
Lagrange basis product over Q(i) and sums them, O(k^3) but obviously right.
"""
from plectic.scalar import GaussianRational as GR


def reference_interpolate(xs, ys):
    """Ascending coefficients of the polynomial through (xs[t], ys[t])."""
    total = [GR(0)]
    for t, (xt, yt) in enumerate(zip(xs, ys)):
        if not yt:
            continue
        basis = [GR(1)]
        denom = GR(1)
        for s, xs_ in enumerate(xs):
            if s == t:
                continue
            # multiply basis by (X - xs_)
            new = [GR(0)] * (len(basis) + 1)
            for p, c in enumerate(basis):
                new[p] = new[p] + c * (-xs_)
                new[p + 1] = new[p + 1] + c
            basis = new
            denom = denom * (xt - xs_)
        scale = yt / denom
        if len(basis) > len(total):
            total += [GR(0)] * (len(basis) - len(total))
        for p, c in enumerate(basis):
            total[p] = total[p] + c * scale
    while total and not total[-1]:
        total.pop()
    return tuple(total)
