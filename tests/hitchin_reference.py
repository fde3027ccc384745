"""The column-by-column loop that plectic.classify replaced by a pair plan.

Kept as the reference for the differential tests.  ``reference_volume_times_j``
builds g*J for a 3-form on R^6 column by column: column i is
(i_{e_i} w) ^ w, each term of i_{e_i} w wedged with each disjoint index
triple of w, so every product c_A * c_B is formed once per ordered pair and
summed in the order of the coefficient dict.
"""
from itertools import combinations

from plectic.exterior import _contraction_columns, sort_index_tuple

# (a, b) -> [(ijk, m - 1, sign)] over the triples disjoint from (a, b):
# dx^ab ^ dx^ijk is sign * (-1)^(m-1) times the 5-form missing index m, the
# sign row m of J carries (i_{e_m} Vol is (-1)^(m-1) times that 5-form)
WEDGE_COLUMNS = {
    pair: [(idx, m - 1, sign if m % 2 else -sign)
           for idx in combinations(range(1, 7), 3)
           for merged, sign in [sort_index_tuple(pair + idx)] if merged
           for m in [21 - sum(merged)]]
    for pair in combinations(range(1, 7), 2)
}


def reference_volume_times_j(coeffs, zero):
    """Rows of g*J for the 3-form on R^6 with coefficients ``coeffs``, in the
    ring they live in (``zero`` is its zero), g the volume coefficient."""
    gj = [[zero] * 6 for _ in range(6)]
    for i, two in enumerate(_contraction_columns(coeffs, 6)):
        for pair, ca in two.items():
            for idx, row, sign in WEDGE_COLUMNS[pair]:
                cb = coeffs.get(idx)
                if cb:
                    if sign > 0:
                        gj[row][i] += ca * cb
                    else:
                        gj[row][i] -= ca * cb
    return gj
