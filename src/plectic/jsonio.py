"""JSON (de)serialization for charts, forms, maps and reports.

Wire formats:

* chart:   {"dim": n, "positive": [..], "star_shaped": true}
* form:    {"chart": {...}, "degree": k,
            "terms": [{"idx": [1,3,5], "coeff": "<expr>"}]}
  multivector: same with "kind": "multivector"
* map:     {"source": chart, "target": chart, "components": ["<expr>", ..]}
* Lie algebra: {"dim": d, "c": [[[...]]]} (c[i][j][k] rationals)
* points:  rationals as integers or "p/q" strings; Gaussian rationals as
  "a/b+c/d i"

Expression printing is canonical: terms in graded-lex order, rational
exponents as ^(p/q).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, List, Optional, Sequence

from .classify import TypeReport
from .errors import SchemaError
from .exterior import Chart, DiffForm, MultiVec, SmoothMap, chart
from .liesym import LieAction, LieAlgebraData
from .mover import LinearStep, Poly, PolyAuto
from .scalar import (
    GaussianRational,
    RationalExpr,
    format_gaussian_point,
    format_rational,
    parse_expression,
    parse_fraction,
    parse_gaussian,
)

Q = Fraction


def _fail(path: str, msg: str):
    raise SchemaError([f"{path}: {msg}"])


def _expect(cond: bool, path: str, msg: str):
    if not cond:
        _fail(path, msg)


def _get(obj: dict, key: str, path: str):
    if key not in obj:
        _fail(path, f"missing key {key!r}")
    return obj[key]


# The shared readers: integers (JSON ``true`` is not 1), lists read item by
# item at ``path[i]``, and constructors whose failure is reported at a path.
# A reader takes the JSON value, its path and any context (a chart, a
# dimension) it needs.


def read_int(v, path: str, lo: Optional[int] = 1, hi: Optional[int] = None,
             msg: Optional[str] = None) -> int:
    """A JSON integer in lo..hi (``None`` leaves a side open); ``true`` is
    not 1."""
    ok = type(v) is int and (lo is None or v >= lo) and (hi is None or v <= hi)
    _expect(ok, path, msg or (f"must be an integer >= {lo}" if hi is None
                              else f"must be an integer in {lo}..{hi}"))
    return v


# The largest chart dimension a payload may name; verify's ring-laws dim too.
# Every term keeps an exponent tuple of that length, and solves grow steeply
# with it: hamvf of the chain sum (x_i + 1) dx_{i,i+1,i+2} took 0.005 s at dim
# 16 and 0.11 s at dim 32.  A move's realified chart, the largest the package
# builds itself, has dim 16.
DIM_MAX = 16


def read_positive(v, path: str, hi: Optional[int] = None) -> int:
    read_int(v, path, msg="must be a positive integer")
    return read_int(v, path, 1, hi)


def read_list(obj, path: str, msg: str, item=None, *context,
              size: Optional[int] = None, least: int = 0, most: Optional[int] = None) -> list:
    """A list of ``size`` (or at least ``least``) items, else ``msg``, and of
    at most ``most`` items; with ``item``, the list of ``item(value, f"{path}[i]", *context)``."""
    _expect(isinstance(obj, list) and len(obj) >= least and size in (None, len(obj)),
            path, msg)
    _expect(most is None or len(obj) <= most, path, f"must have at most {most} entries")
    if item is None:
        return obj
    return [item(v, f"{path}[{i}]", *context) for i, v in enumerate(obj)]


def built(path: str, make, *args, note: str = ""):
    """``make(*args)``, with any exception reported at ``path``."""
    try:
        return make(*args)
    except Exception as exc:
        _fail(path, f"{note}{exc}")


# -- charts -----------------------------------------------------------------


def chart_to_json(ch: Chart) -> dict:
    out: Dict[str, Any] = {"dim": ch.dim, "positive": sorted(ch.positive)}
    if not ch.star_shaped:
        out["star_shaped"] = False
    return out


def chart_from_json(obj, path: str = "chart") -> Chart:
    _expect(isinstance(obj, dict), path, "must be an object")
    dim = read_positive(_get(obj, "dim", path), f"{path}.dim", DIM_MAX)
    positive = read_list(obj.get("positive", []), f"{path}.positive", "must be a list",
                         read_int, 1, dim)
    star = obj.get("star_shaped", True)
    _expect(isinstance(star, bool), f"{path}.star_shaped", "must be boolean")
    return chart(dim, positive, star_shaped=star)


# -- expressions, forms, multivectors ----------------------------------------


def expr_from_json(obj, path: str, dim: int) -> RationalExpr:
    if type(obj) is int:
        return RationalExpr.const(dim, obj)
    _expect(isinstance(obj, str), path, "must be an expression string or integer")
    return built(path, parse_expression, obj, dim, note="bad expression: ")


def form_to_json(a) -> dict:
    out = {
        "chart": chart_to_json(a.chart),
        "degree": a.degree,
        "terms": [
            {"idx": list(idx), "coeff": format_rational(c)}
            for idx, c in sorted(a.coeffs.items())
        ],
    }
    if isinstance(a, MultiVec):
        out["kind"] = "multivector"
    return out


def form_from_json(obj, path: str = "form", chart_hint: Optional[Chart] = None,
                   expect_kind: Optional[str] = None):
    _expect(isinstance(obj, dict), path, "must be an object")
    kind = obj.get("kind", "form")
    _expect(kind in ("form", "multivector"), f"{path}.kind",
            "must be 'form' or 'multivector'")
    if expect_kind is not None:
        _expect(kind == expect_kind, f"{path}.kind", f"must be {expect_kind!r}")
    if "chart" in obj:
        ch = chart_from_json(obj["chart"], f"{path}.chart")
    elif chart_hint is not None:
        ch = chart_hint
    else:
        _fail(f"{path}.chart", "missing chart")
    degree = read_int(_get(obj, "degree", path), f"{path}.degree", 0,
                      msg="must be a nonnegative integer")
    _expect(degree <= ch.dim, f"{path}.degree", "exceeds chart dimension")
    terms = read_list(_get(obj, "terms", path), f"{path}.terms", "must be a list")
    coeffs = {}
    for t, term in enumerate(terms):
        tp = f"{path}.terms[{t}]"
        _expect(isinstance(term, dict), tp, "must be an object")
        idx = read_list(_get(term, "idx", tp), f"{tp}.idx", "must be a list")
        _expect(len(idx) == degree, f"{tp}.idx",
                f"length {len(idx)} does not match degree {degree}")
        for v in idx:
            read_int(v, f"{tp}.idx", 1, ch.dim, f"indices must lie in 1..{ch.dim}")
        _expect(all(idx[i] < idx[i + 1] for i in range(len(idx) - 1)),
                f"{tp}.idx", "must be strictly increasing")
        coeff = expr_from_json(_get(term, "coeff", tp), f"{tp}.coeff", ch.dim)
        key = tuple(idx)
        _expect(key not in coeffs, f"{tp}.idx", "duplicate index tuple")
        coeffs[key] = coeff
    return built(path, MultiVec if kind == "multivector" else DiffForm, ch, degree, coeffs)


def vector_from_json(obj, path: str, chart_hint: Optional[Chart] = None) -> MultiVec:
    return form_from_json(obj, path, chart_hint, "multivector")


def smooth_map_from_json(obj, path: str = "map") -> SmoothMap:
    _expect(isinstance(obj, dict), path, "must be an object")
    src = chart_from_json(_get(obj, "source", path), f"{path}.source")
    tgt = chart_from_json(_get(obj, "target", path), f"{path}.target")
    comps = read_list(_get(obj, "components", path), f"{path}.components",
                      f"must list {tgt.dim} expressions", expr_from_json, src.dim,
                      size=tgt.dim)
    return SmoothMap(src, tgt, tuple(comps))


# -- points ------------------------------------------------------------------


def _rational_from_json(v, path: str) -> Fraction:
    """An integer or a rational string such as "-3/4"."""
    if type(v) is int:
        return Q(v)
    _expect(isinstance(v, str), path, "must be an integer or rational string")
    return built(path, parse_fraction, v)


def point_from_json(obj, path: str, ch: Chart) -> List[Fraction]:
    return read_list(obj, path, f"must be a list of {ch.dim} rationals",
                     _rational_from_json, size=ch.dim)


def _gaussian_from_json(v, path: str) -> GaussianRational:
    if type(v) is int:
        return GaussianRational(v)
    _expect(isinstance(v, str), path, "must be an integer or 'a/b+c/d i' string")
    return built(path, parse_gaussian, v)


def gaussian_point_from_json(obj, path: str, n: int) -> List[GaussianRational]:
    return read_list(obj, path, f"must be a list of {n} Gaussian rationals",
                     _gaussian_from_json, size=n)


def gaussian_point_to_json(pt: Sequence[GaussianRational]) -> List[str]:
    return [format_gaussian_point(GaussianRational.ensure(v)) for v in pt]


# -- Lie data ----------------------------------------------------------------


def algebra_from_json(obj, path: str = "algebra") -> LieAlgebraData:
    _expect(isinstance(obj, dict), path, "must be an object")
    dim = read_positive(_get(obj, "dim", path), f"{path}.dim")

    def vector(v, vp):
        return tuple(read_list(v, vp, f"must list {dim} rationals", _rational_from_json,
                               size=dim))

    def row(v, rp):
        return tuple(read_list(v, rp, f"must list {dim} vectors", vector, size=dim))

    c = read_list(_get(obj, "c", path), f"{path}.c", f"must be a {dim}^3 nested array",
                  row, size=dim)
    return built(path, LieAlgebraData, dim, tuple(c))


def action_from_json(obj, path: str = "action") -> LieAction:
    _expect(isinstance(obj, dict), path, "must be an object")
    algebra = algebra_from_json(_get(obj, "algebra", path), f"{path}.algebra")
    gens = read_list(_get(obj, "generators", path), f"{path}.generators",
                     f"must list {algebra.dim} vector fields", vector_from_json,
                     size=algebra.dim)
    surrogate = obj.get("surrogate", False)
    _expect(isinstance(surrogate, bool), f"{path}.surrogate", "must be boolean")
    return built(path, LieAction, algebra, gens, surrogate)


# -- reports -----------------------------------------------------------------


def type_report_to_json(rep: TypeReport) -> dict:
    out: Dict[str, Any] = {
        "type": rep.linear_type,
        "trace_sign": rep.trace_sign,
        "flat": rep.flat,
        "witness": None,
        "points": [[str(v) for v in pt] for pt in rep.points],
    }
    if rep.witness is not None:
        out["witness"] = form_to_json(rep.witness)
    if rep.witness_kind:
        out["witness_kind"] = rep.witness_kind
    if rep.notes:
        out["notes"] = list(rep.notes)
    return out


# -- mover steps --------------------------------------------------------------


def _poly_to_json(p: Poly) -> List[str]:
    return [format_gaussian_point(c) for c in p.coeffs]


def step_to_json(step) -> dict:
    """A step of a PolyAuto, whose constructor admits only linear steps and shears."""
    if isinstance(step, LinearStep):
        return {
            "kind": "linear",
            "matrix": [[format_gaussian_point(v) for v in row]
                       for row in step.matrix],
        }
    return {
        "kind": "shear",
        "axis": step.kind,
        "sign": step.sign,
        "polys": [_poly_to_json(p) for p in step.polys],
    }


def auto_to_json(auto: PolyAuto) -> dict:
    return {"dim": auto.dim, "steps": [step_to_json(s) for s in auto.steps]}
