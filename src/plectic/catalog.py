"""Named constructors for the standard forms used throughout.

Covers the three non-degenerate 3-form types in dimension six, the closed
G2-structure form in dimension seven, the tangent-space form of the round
six-sphere at the pole, symplectic forms and their wedge powers, real parts
of complex volume forms, and the one-parameter family
w^f = dx135 - dx146 - dx236 + f(x2) dx245 on the half-space x2 > 0.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Union

from .exterior import Chart, DiffForm, chart, wedge
from .scalar import RationalExpr, parse_expression


def product6() -> DiffForm:
    """dx123 + dx456, the product-type normal form."""
    return DiffForm(chart(6), 3, {(1, 2, 3): 1, (4, 5, 6): 1})


def complex6() -> DiffForm:
    """dx135 - dx146 - dx236 - dx245 = Re(dz1 ^ dz2 ^ dz3) interleaved."""
    return DiffForm(chart(6), 3, {(1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1})


def tangent6() -> DiffForm:
    """dx156 - dx246 + dx345, the tangent-type normal form."""
    return DiffForm(chart(6), 3, {(1, 5, 6): 1, (2, 4, 6): -1, (3, 4, 5): 1})


def g2_form() -> DiffForm:
    """The closed G2-structure 3-form on R^7."""
    return DiffForm(chart(7), 3, {
        (1, 2, 3): 1, (1, 4, 5): 1, (1, 6, 7): -1,
        (2, 4, 6): 1, (2, 5, 7): 1, (3, 4, 7): 1, (3, 5, 6): -1,
    })


def s6_pole_form() -> DiffForm:
    """Restriction of the G2 form to the tangent space of S^6 at the pole."""
    return DiffForm(chart(6), 3, {(1, 2, 3): 1, (1, 4, 5): 1, (2, 4, 6): 1, (3, 5, 6): -1})


def half_space6() -> Chart:
    """R^6 with x2 > 0 (licenses sqrt(x2) coefficients)."""
    return chart(6, positive={2})


def omega_f(f: Union[str, RationalExpr, int, Fraction],
            ch: Optional[Chart] = None) -> DiffForm:
    """dx135 - dx146 - dx236 + f * dx245 for a coefficient f in x2, x4, x5."""
    ch = ch or half_space6()
    if isinstance(f, str):
        f = parse_expression(f, ch.dim)
    return DiffForm(ch, 3, {
        (1, 3, 5): 1, (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): f,
    })


def symplectic_form(m: int) -> DiffForm:
    """dx1^dx2 + ... + dx(2m-1)^dx(2m) on R^{2m}."""
    return DiffForm(chart(2 * m), 2, {(2 * i - 1, 2 * i): 1 for i in range(1, m + 1)})


def symplectic_power(m: int, j: int) -> DiffForm:
    """j-th wedge power of the standard symplectic form on R^{2m}."""
    w = symplectic_form(m)
    out = w
    for _ in range(j - 1):
        out = wedge(out, w)
    return out


def complex_volume_re(m: int) -> DiffForm:
    """Re((dx1 + i dx2) ^ ... ^ (dx(2m-1) + i dx(2m))) on R^{2m}."""
    ch = chart(2 * m)
    out = DiffForm(ch, m, {})
    # expand the product over choices of dx / i dy per factor
    for picks in itertools.product((0, 1), repeat=m):
        i_power = sum(picks) % 4
        if i_power % 2:
            continue  # imaginary part
        sign = 1 if i_power == 0 else -1
        idx = tuple(2 * j + 1 + picks[j] for j in range(m))
        out = out + DiffForm(ch, m, {idx: sign})
    return out
