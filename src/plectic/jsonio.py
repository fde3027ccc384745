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
from .mover import LinearStep, Poly, PolyAuto, ShearStep
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


# -- charts -----------------------------------------------------------------


def chart_to_json(ch: Chart) -> dict:
    out: Dict[str, Any] = {"dim": ch.dim, "positive": sorted(ch.positive)}
    if not ch.star_shaped:
        out["star_shaped"] = False
    return out


def chart_from_json(obj, path: str = "chart") -> Chart:
    _expect(isinstance(obj, dict), path, "must be an object")
    dim = _get(obj, "dim", path)
    _expect(isinstance(dim, int) and dim >= 1, f"{path}.dim", "must be a positive integer")
    positive = obj.get("positive", [])
    _expect(isinstance(positive, list), f"{path}.positive", "must be a list")
    for i, v in enumerate(positive):
        _expect(isinstance(v, int) and 1 <= v <= dim, f"{path}.positive[{i}]",
                f"must be an integer in 1..{dim}")
    star = obj.get("star_shaped", True)
    _expect(isinstance(star, bool), f"{path}.star_shaped", "must be boolean")
    return chart(dim, positive, star_shaped=star)


# -- expressions, forms, multivectors ----------------------------------------


def expr_from_json(obj, dim: int, path: str) -> RationalExpr:
    if isinstance(obj, int):
        return RationalExpr.const(dim, obj)
    _expect(isinstance(obj, str), path, "must be an expression string or integer")
    try:
        return parse_expression(obj, dim)
    except Exception as exc:
        _fail(path, f"bad expression: {exc}")


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


def form_from_json(obj, path: str = "form", expect_kind: Optional[str] = None,
                   chart_hint: Optional[Chart] = None):
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
    degree = _get(obj, "degree", path)
    _expect(isinstance(degree, int) and degree >= 0, f"{path}.degree",
            "must be a nonnegative integer")
    _expect(degree <= ch.dim, f"{path}.degree", "exceeds chart dimension")
    terms = _get(obj, "terms", path)
    _expect(isinstance(terms, list), f"{path}.terms", "must be a list")
    coeffs = {}
    for t, term in enumerate(terms):
        tp = f"{path}.terms[{t}]"
        _expect(isinstance(term, dict), tp, "must be an object")
        idx = _get(term, "idx", tp)
        _expect(isinstance(idx, list), f"{tp}.idx", "must be a list")
        _expect(len(idx) == degree, f"{tp}.idx",
                f"length {len(idx)} does not match degree {degree}")
        for v in idx:
            _expect(isinstance(v, int) and 1 <= v <= ch.dim, f"{tp}.idx",
                    f"indices must lie in 1..{ch.dim}")
        _expect(all(idx[i] < idx[i + 1] for i in range(len(idx) - 1)),
                f"{tp}.idx", "must be strictly increasing")
        coeff = expr_from_json(_get(term, "coeff", tp), ch.dim, f"{tp}.coeff")
        key = tuple(idx)
        if key in coeffs:
            _fail(f"{tp}.idx", "duplicate index tuple")
        coeffs[key] = coeff
    try:
        if kind == "multivector":
            return MultiVec(ch, degree, coeffs)
        return DiffForm(ch, degree, coeffs)
    except Exception as exc:
        _fail(path, str(exc))


def smooth_map_from_json(obj, path: str = "map") -> SmoothMap:
    _expect(isinstance(obj, dict), path, "must be an object")
    src = chart_from_json(_get(obj, "source", path), f"{path}.source")
    tgt = chart_from_json(_get(obj, "target", path), f"{path}.target")
    comps = _get(obj, "components", path)
    _expect(isinstance(comps, list) and len(comps) == tgt.dim,
            f"{path}.components", f"must list {tgt.dim} expressions")
    parsed = tuple(
        expr_from_json(c, src.dim, f"{path}.components[{i}]")
        for i, c in enumerate(comps)
    )
    return SmoothMap(src, tgt, parsed)


# -- points ------------------------------------------------------------------


def _rational_from_json(v, path: str) -> Fraction:
    """An integer or a rational string such as "-3/4"."""
    if isinstance(v, int):
        return Q(v)
    if not isinstance(v, str):
        _fail(path, "must be an integer or rational string")
    try:
        return parse_fraction(v)
    except Exception as exc:
        _fail(path, str(exc))


def point_from_json(obj, dim: int, path: str) -> List[Fraction]:
    _expect(isinstance(obj, list) and len(obj) == dim, path,
            f"must be a list of {dim} rationals")
    return [_rational_from_json(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def gaussian_point_from_json(obj, n: int, path: str) -> List[GaussianRational]:
    _expect(isinstance(obj, list) and len(obj) == n, path,
            f"must be a list of {n} Gaussian rationals")
    out = []
    for i, v in enumerate(obj):
        if isinstance(v, int):
            out.append(GaussianRational(v))
        elif isinstance(v, str):
            try:
                out.append(parse_gaussian(v))
            except Exception as exc:
                _fail(f"{path}[{i}]", str(exc))
        else:
            _fail(f"{path}[{i}]", "must be an integer or 'a/b+c/d i' string")
    return out


def gaussian_point_to_json(pt: Sequence[GaussianRational]) -> List[str]:
    return [format_gaussian_point(GaussianRational.ensure(v)) for v in pt]


# -- Lie data ----------------------------------------------------------------


def algebra_from_json(obj, path: str = "algebra") -> LieAlgebraData:
    _expect(isinstance(obj, dict), path, "must be an object")
    dim = _get(obj, "dim", path)
    _expect(isinstance(dim, int) and dim >= 1, f"{path}.dim",
            "must be a positive integer")
    c = _get(obj, "c", path)
    _expect(isinstance(c, list) and len(c) == dim, f"{path}.c",
            f"must be a {dim}^3 nested array")
    conv = []
    for i, row in enumerate(c):
        _expect(isinstance(row, list) and len(row) == dim, f"{path}.c[{i}]",
                f"must list {dim} vectors")
        crow = []
        for j, vec in enumerate(row):
            _expect(isinstance(vec, list) and len(vec) == dim,
                    f"{path}.c[{i}][{j}]", f"must list {dim} rationals")
            crow.append(tuple(_rational_from_json(v, f"{path}.c[{i}][{j}][{k}]")
                              for k, v in enumerate(vec)))
        conv.append(tuple(crow))
    try:
        return LieAlgebraData(dim, tuple(conv))
    except Exception as exc:
        _fail(path, str(exc))


def action_from_json(obj, path: str = "action") -> LieAction:
    _expect(isinstance(obj, dict), path, "must be an object")
    algebra = algebra_from_json(_get(obj, "algebra", path), f"{path}.algebra")
    gens_json = _get(obj, "generators", path)
    _expect(isinstance(gens_json, list) and len(gens_json) == algebra.dim,
            f"{path}.generators", f"must list {algebra.dim} vector fields")
    gens = []
    for i, gj in enumerate(gens_json):
        g = form_from_json(gj, f"{path}.generators[{i}]", expect_kind="multivector")
        gens.append(g)
    surrogate = obj.get("surrogate", False)
    _expect(isinstance(surrogate, bool), f"{path}.surrogate", "must be boolean")
    try:
        return LieAction(algebra, tuple(gens), surrogate=surrogate)
    except Exception as exc:
        _fail(path, str(exc))


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
    if isinstance(step, LinearStep):
        return {
            "kind": "linear",
            "matrix": [[format_gaussian_point(v) for v in row]
                       for row in step.matrix],
        }
    if isinstance(step, ShearStep):
        return {
            "kind": "shear",
            "axis": step.kind,
            "sign": step.sign,
            "polys": [_poly_to_json(p) for p in step.polys],
        }
    raise SchemaError([f"unknown step type {type(step).__name__}"])


def auto_to_json(auto: PolyAuto) -> dict:
    return {"dim": auto.dim, "steps": [step_to_json(s) for s in auto.steps]}
