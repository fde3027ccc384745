"""Command-line front-end: one binary, one subcommand per capability.

Input is JSON (file argument or stdin); output is one sorted-key JSON report
on stdout, indented for an answer and on one line for a fault found before
dispatch.  The global flags are ``--sign`` and ``--seed``.  Exit codes: 0
when the command produced its answer (a mathematically negative answer such
as NotHamiltonian from ``hamvf`` is still an answer), 2 when a
verification-style command found its property violated (hdw-residual,
volterra, curve-check, lie-validate, comoment verify, verify), and 1 for
malformed input (argv errors included) or internal faults.

Every payload is parsed and schema-checked before dispatch; violations are
reported with their JSON paths.  The payload format lives in ``COMMANDS``:
a command whose payload is plain fields has a row of ``(key, reader[, on])``
fields, read in order by ``_fields``, where ``on`` names the earlier field
whose chart the value lives on ("omega", "action", "map.source",
"map.target").  The other commands keep a parser function.  Both use the
readers of ``jsonio``: ``read_int`` (a JSON integer, so ``true`` is not 1),
``read_list`` and ``built``.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

# modules, not names: a call loads only the layers its command runs (see __init__)
from . import classify, hdw, liesym, linfty, mover
from .errors import NotHamiltonian, PlecticError, SchemaError
from .exterior import ext_d, lie_derivative
from .jsonio import (
    DIM_MAX,
    _expect,
    _get,
    action_from_json,
    algebra_from_json,
    auto_to_json,
    chart_to_json,
    expr_from_json,
    form_from_json,
    form_to_json,
    gaussian_point_from_json,
    gaussian_point_to_json,
    point_from_json,
    read_int,
    read_list,
    read_positive,
    smooth_map_from_json,
    type_report_to_json,
    vector_from_json,
)
from .scalar import RationalExpr, ScalarExpr, format_rational

Q = Fraction

VERIFY_CHECKS = (
    "ring-laws", "linfty-relation", "jacobiator", "involutive", "standard-subspace",
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_FAILED_CHECK = 2

# n <= 8 keeps the realified chart of dim 2n within jsonio.DIM_MAX.  A move of
# two random Gaussian points took 0.009 s at n = 6, 0.018 s at 7 and 0.036 s at 8.
_MOVE_N_MAX = 8
# Shears of degree k - 1 for k points: a move of 16 points took 0.12 s at n = 6
# and 0.45 s at n = 8, of 24 points 0.31 s and 1.1 s, of 32 at n = 8 2.0 s.
_MOVE_POINTS_MAX = 16
# verify's ring-laws check draws three random scalars per sample: 500 samples
# took 0.17 s at dim 16 and at dim 3, 250 took 0.10 s (best of three, in-process).
_VERIFY_SAMPLES_MAX = 500


class Request(NamedTuple):
    """A validated request: its command, parsed payload and options."""

    command: str
    parsed: dict
    sign_convention: str
    seed: int


def parse_request(raw: bytes, command: str,
                  options: Optional[dict] = None) -> Request:
    """Parse and schema-validate the JSON payload ``raw`` of ``command``.

    ``options`` may set ``sign_convention`` and an integer ``seed``.  Every
    violation raises :class:`SchemaError` with its JSON path
    (``$.options.seed`` and so on).
    """
    try:
        payload = json.loads(raw.decode("utf-8"))
    except Exception as exc:
        raise SchemaError([f"$: invalid JSON: {exc}"]) from None
    opts = options or {}
    _expect(command in COMMANDS, "$.command",
            f"must be one of {', '.join(COMMANDS)}")
    _expect(isinstance(payload, dict), "$.payload", "must be an object")
    sign = opts.get("sign_convention", hdw.SIGN_HDW)
    _expect(sign in (hdw.SIGN_HDW, hdw.SIGN_FIN1), "$.options.sign_convention",
            f"must be '{hdw.SIGN_HDW}' or '{hdw.SIGN_FIN1}'")
    seed = read_int(opts.get("seed", 0), "$.options.seed", None, msg="must be an integer")
    fields = COMMANDS[command][0]
    parsed = fields(payload) if callable(fields) else _fields(payload, fields)
    return Request(command, parsed, sign, seed)


# ---------------------------------------------------------------------------
# payload parsers (schema validation with JSON paths)
# ---------------------------------------------------------------------------


def _fields(p, rows) -> dict:
    """The payload ``p`` read by the rows ``(key, reader[, on])``, in order.

    Each value is ``reader(p[key], "$.key")``; with ``on`` the reader also
    gets the chart of the earlier field that ``on`` names: "omega" is that
    form's chart, "map.source" the source chart of the map.
    """
    out = {}
    for key, read, *on in rows:
        context = []
        for name in on:
            field, _, attr = name.partition(".")
            context.append(getattr(out[field], attr or "chart"))
        out[key] = read(_get(p, key, "$"), f"$.{key}", *context)
    return out


def _list_of(item, msg: str, least: int):
    """A row reader for a list of at least ``least`` values read by ``item``."""
    return lambda v, path, *context: read_list(v, path, msg, item, *context, least=least)


def _parse_multiphase(p):
    n, N = (read_int(_get(p, key, "$"), f"$.{key}") for key in ("n", "N"))
    _expect(hdw.multiphase_dim(n, N) <= DIM_MAX, "$", f"n + N + nN + 1 must be at most {DIM_MAX}")
    return {"n": n, "N": N}


def _parse_volterra(p):
    n, N = _parse_multiphase(p).values()
    model = hdw.multiphase_forms(n, N)
    ham = expr_from_json(_get(p, "hamiltonian", "$"), "$.hamiltonian",
                         model.restricted_chart.dim)
    section = _get(p, "section", "$")
    _expect(isinstance(section, dict), "$.section", "must be an object")
    qs, ps = (_get(section, key, "$.section") for key in ("q", "p"))
    q_msg = f"must list {N} expressions in x1..x{n}"
    read_list(qs, "$.section.q", q_msg, size=N)  # both shapes before any entry
    read_list(ps, "$.section.p", f"must list {N} rows of {n} expressions", size=N)
    q = read_list(qs, "$.section.q", q_msg, expr_from_json, n)
    p_rows = [read_list(row, f"$.section.p[{a}]", f"must list {n} expressions",
                        expr_from_json, n, size=n) for a, row in enumerate(ps)]
    return {"model": model, "hamiltonian": ham, "section": model.section(q, p_rows)}


def _parse_lie_validate(p):
    raw = _get(p, "algebra", "$")
    try:
        g = algebra_from_json(raw, "$.algebra")
        return {"algebra": g, "violation": None}
    except SchemaError as exc:
        bad = [v for v in exc.violations
               if "Jacobi" in v or "antisymmetric" in v]
        if bad:
            return {"algebra": None, "violation": bad}
        raise


def _parse_comoment(p):
    out = _fields(p, (("action", action_from_json), ("omega", form_from_json, "action")))
    w = out["omega"]
    mode = out["mode"] = _get(p, "mode", "$")
    _expect(mode in ("from-potential", "verify"), "$.mode",
            "must be 'from-potential' or 'verify'")
    n = hdw.plectic_order(w, "a comoment")  # in both modes, before the maps are counted
    if mode == "from-potential":
        out["potential"] = form_from_json(_get(p, "potential", "$"), "$.potential", w.chart)
        sign = out["potential_sign"] = p.get("potential_sign", 1)
        _expect(type(sign) is int and sign in (1, -1), "$.potential_sign", "must be 1 or -1")
    else:
        out["maps"] = _comoment_from_json(_get(p, "maps", "$"), out["action"].algebra, n,
                                          w.chart)
    return out


def _parse_move(p):
    n = read_int(_get(p, "n", "$"), "$.n", 2, _MOVE_N_MAX)
    lists = {key: _get(p, key, "$") for key in ("src", "dst")}
    for key, val in lists.items():  # both are lists before either is read
        read_list(val, f"$.{key}", "must be a list of points", most=_MOVE_POINTS_MAX)
    src, dst = (read_list(val, f"$.{key}", "must be a list of points",
                          gaussian_point_from_json, n) for key, val in lists.items())
    _expect(len(src) == len(dst), "$.dst", "must match the source count")
    return {"n": n, "src": src, "dst": dst}


def _parse_verify(p):
    check = _get(p, "check", "$")
    _expect(check in VERIFY_CHECKS, "$.check",
            f"must be one of {', '.join(VERIFY_CHECKS)}")
    out: Dict[str, Any] = {"check": check}
    if check == "ring-laws":
        out["dim"] = read_positive(p.get("dim", 3), "$.dim", DIM_MAX)
        out["samples"] = read_positive(p.get("samples", 25), "$.samples", _VERIFY_SAMPLES_MAX)
    elif check in ("linfty-relation", "jacobiator"):
        w = out["omega"] = form_from_json(_get(p, "omega", "$"), "$.omega")
        args = _get(p, "args", "$")
        size, msg = 3, "must list exactly three forms"
        if check == "linfty-relation":
            k = out["k"] = read_int(_get(p, "k", "$"), "$.k", 2, msg="must be >= 2")
            size, msg = k + 1, f"must list {k + 1} forms"
        out["args"] = read_list(args, "$.args", msg, form_from_json, w.chart, size=size)
    else:
        frame = _get(p, "frame", "$")
        msg = "must be a nonempty list of vector fields"
        read_list(frame, "$.frame", msg, least=1)  # the frame's shape before omega
        hint = None
        if check == "standard-subspace":
            out["omega"] = form_from_json(_get(p, "omega", "$"), "$.omega")
            hint = out["omega"].chart
        out["frame"] = read_list(frame, "$.frame", msg, vector_from_json, hint)
    return out


def _comoment_from_json(obj, algebra, n, chart_hint) -> liesym.ComomentData:
    d = algebra.dim
    maps = []
    comps = read_list(obj, "$.maps", f"must list {n} components", size=n)
    for i, comp in enumerate(comps, start=1):
        cp = f"$.maps[{i - 1}]"
        subsets = list(combinations(range(1, d + 1), i))
        entries = {}
        for t, entry in enumerate(read_list(comp, cp, "must be a list")):
            ep = f"{cp}[{t}]"
            _expect(isinstance(entry, dict), ep, "must be an object")
            idx = _get(entry, "idx", ep)
            key = (tuple(idx) if isinstance(idx, list)
                   and all(type(v) is int for v in idx) else None)
            _expect(key in subsets, f"{ep}.idx",
                    f"must list {i} strictly increasing indices in 1..{d}")
            _expect(key not in entries, f"{ep}.idx", "repeats an earlier idx")
            entries[key] = form_from_json(_get(entry, "form", ep), f"{ep}.form", chart_hint)
        missing = [list(T) for T in subsets if T not in entries]
        _expect(not missing, cp,
                f"must list every {i}-subset of 1..{d}; missing {missing}")
        maps.append(entries)
    return liesym.ComomentData(algebra, n, tuple(maps))


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_classify(req: Request):
    rep = classify.classify6(req.parsed["omega"], req.parsed["point"])
    return type_report_to_json(rep), EXIT_OK


def _cmd_flat(req: Request):
    rep = classify.flatness_report(req.parsed["omega"])
    return type_report_to_json(rep), EXIT_OK


def _cmd_hamvf(req: Request):
    a = req.parsed
    try:
        X = hdw.ham_vector_field(a["omega"], a["hamiltonian"], req.sign_convention)
    except NotHamiltonian as exc:
        return {"verdict": "NotHamiltonian", "detail": str(exc)}, EXIT_OK
    return {"verdict": "Hamiltonian", "field": form_to_json(X)}, EXIT_OK


def _cmd_hdw_residual(req: Request):
    a = req.parsed
    res = hdw.hdw_residual(a["omega"], a["field"], a["hamiltonian"], req.sign_convention)
    ok = res.is_zero
    return ({"residual": form_to_json(res), "zero": ok},
            EXIT_OK if ok else EXIT_FAILED_CHECK)


def _cmd_multiphase(req: Request):
    a = req.parsed
    model = hdw.multiphase_forms(a["n"], a["N"])
    nd = classify.nondegenerate(model.omega)
    return {
        "chart": chart_to_json(model.chart),
        "labels": list(model.labels),
        "theta": form_to_json(model.theta),
        "omega": form_to_json(model.omega),
        "closed": ext_d(model.omega).is_zero,
        "nondegenerate": bool(nd),
    }, EXIT_OK


def _cmd_volterra(req: Request):
    a = req.parsed
    residuals = hdw.hamilton_volterra_residual(a["model"], a["hamiltonian"], a["section"])
    ok = all(r.is_zero for r in residuals)
    return ({
        "residuals": [format_rational(r) for r in residuals],
        "zero": ok,
    }, EXIT_OK if ok else EXIT_FAILED_CHECK)


def _cmd_curve_check(req: Request):
    a = req.parsed
    results = hdw.ham_curve_check(a["map"], a["gamma"], a["field"], a["points"])
    ok = all(results)
    return ({"results": results, "all": ok},
            EXIT_OK if ok else EXIT_FAILED_CHECK)


def _cmd_bracket(req: Request):
    a = req.parsed
    w = a["omega"]
    obs = [linfty.make_observable(w, f) for f in a["args"]]
    result = linfty.l_k(w, obs)
    return {"k": len(obs), "result": form_to_json(result)}, EXIT_OK


def _cmd_lie_validate(req: Request):
    a = req.parsed
    if a["violation"] is not None:
        return {"valid": False, "detail": a["violation"]}, EXIT_FAILED_CHECK
    K = liesym.killing_form(a["algebra"])
    return {
        "valid": True,
        "killing": [[str(v) for v in row] for row in K.matrix],
        "semisimple": K.is_semisimple,
    }, EXIT_OK


def _comoment_to_json(cm: liesym.ComomentData) -> dict:
    return {
        "n": cm.n,
        "maps": [
            [{"idx": list(T), "form": form_to_json(val)}
             for T, val in sorted(comp.items())]
            for comp in cm.maps
        ],
    }


def _cmd_comoment(req: Request):
    a = req.parsed
    act, w = a["action"], a["omega"]
    if a["mode"] == "from-potential":
        cm = liesym.comoment_from_potential(act, a["potential"], w,
                                            potential_sign=a["potential_sign"])
        rep = liesym.comoment_verify(act, w, cm)
        return {
            "comoment": _comoment_to_json(cm),
            "verified": rep.all_zero,
        }, EXIT_OK
    rep = liesym.comoment_verify(act, w, a["maps"])
    out = {
        "verified": rep.all_zero,
        "lifting_residuals": {
            str(i): form_to_json(v)
            for i, v in sorted(rep.lifting_residuals.items()) if not v.is_zero
        },
        "relation_residuals": {
            f"{i}:{list(T)}": form_to_json(v)
            for (i, T), v in sorted(rep.relation_residuals.items())
            if not v.is_zero
        },
        "note": rep.kernel_note,
    }
    return out, EXIT_OK if rep.all_zero else EXIT_FAILED_CHECK


def _cmd_obstruction(req: Request):
    a = req.parsed
    rep = liesym.obstruction_cochain(a["action"], a["omega"], a["i"])
    out: Dict[str, Any] = {
        "i": rep.index,
        "cochain": [
            {"idx": list(T), "form": form_to_json(v)}
            for T, v in sorted(rep.cochain.items())
        ],
        "vanishes": rep.vanishes,
    }
    if rep.de_rham_exact is not None:
        out["de_rham_exact"] = {
            str(list(T)): v for T, v in sorted(rep.de_rham_exact.items())
        }
    if rep.ce_preimage is not None:
        out["ce_preimage"] = {
            str(list(T)): str(v) for T, v in sorted(rep.ce_preimage.items())
        }
    return out, EXIT_OK


def _cmd_conserved(req: Request):
    a = req.parsed
    obs = linfty.make_observable(a["omega"], a["hamiltonian"])
    verdict = liesym.conserved_classify(a["omega"], obs, a["alpha"])
    L = lie_derivative(obs.ham_field, a["alpha"])
    return {"class": verdict, "lie_derivative": form_to_json(L)}, EXIT_OK


def _cmd_move(req: Request):
    a = req.parsed
    auto = mover.move_points(a["src"], a["dst"], a["n"])
    table = []
    for s, d in zip(a["src"], a["dst"]):
        out_pt = auto.apply(s)
        table.append({
            "src": gaussian_point_to_json(s),
            "out": gaussian_point_to_json(out_pt),
            "dst": gaussian_point_to_json(d),
            "match": list(out_pt) == list(d),
        })
    jac = mover.jacobian_determinant(auto)
    _realified, preserved = mover.realify_and_check(auto)
    return {
        "auto": auto_to_json(auto),
        "eval": table,
        "jacobian": format_rational(jac),
        "realified_preserves_volume": preserved,
    }, EXIT_OK


def _random_scalar(rng: random.Random, dim: int) -> RationalExpr:
    terms = {}
    for _ in range(rng.randint(1, 3)):
        exps = tuple(Q(rng.randint(0, 2)) for _ in range(dim))
        terms[exps] = Q(rng.randint(-4, 4))
    return RationalExpr(ScalarExpr(dim, terms))


def _verify_ring_laws(a, seed: int):
    rng = random.Random(seed or 1)
    dim, samples = a["dim"], a["samples"]
    for _ in range(samples):
        x = _random_scalar(rng, dim)
        y = _random_scalar(rng, dim)
        z = _random_scalar(rng, dim)
        if not ((x + y) * z == x * z + y * z and x * y == y * x
                and (x + y) + z == x + (y + z)):
            return {"ok": False}
        i = rng.randint(1, dim)
        if not ((x * y).partial(i) == x.partial(i) * y + x * y.partial(i)):
            return {"ok": False}
    return {"ok": True, "samples": samples}


def _cmd_verify(req: Request):
    a = req.parsed
    check = a["check"]
    if check == "ring-laws":
        out = _verify_ring_laws(a, req.seed)
    elif check in ("linfty-relation", "jacobiator"):
        w = a["omega"]
        obs = [linfty.make_observable(w, f) for f in a["args"]]
        res = (linfty.linfty_relation_residual(w, a["k"], obs) if check == "linfty-relation"
               else linfty.jacobiator_identity_residual(w, *obs))
        out = {"ok": res.is_zero, "residual": form_to_json(res)}
    elif check == "involutive":
        rep = classify.involutive(a["frame"])
        out = {"ok": rep.involutive}
        if not rep.involutive:
            out["witness_pair"] = list(rep.witness_pair)
            out["witness_bracket"] = form_to_json(rep.witness_bracket)
    else:  # standard-subspace
        rep = classify.verify_standard_subspace(a["omega"], a["frame"])
        out = {
            "ok": rep.ok,
            "pairwise_isotropic": rep.pairwise_isotropic,
            "rank": rep.rank,
            "frame_size": rep.frame_size,
            "quotient_power_dim": rep.quotient_power_dim,
        }
        if rep.failing_pair:
            out["failing_pair"] = list(rep.failing_pair)
    code = EXIT_OK if out.get("ok") else EXIT_FAILED_CHECK
    return out, code


OMEGA = ("omega", form_from_json)

# name -> (payload field rows or parser, handler), in the order the CLI lists them
COMMANDS: Dict[str, Tuple[Any, Callable[[Request], Tuple[dict, int]]]] = {
    "classify": ((OMEGA, ("point", point_from_json, "omega")), _cmd_classify),
    "flat": ((OMEGA,), _cmd_flat),
    "hamvf": ((OMEGA, ("hamiltonian", form_from_json, "omega")), _cmd_hamvf),
    "hdw-residual": ((OMEGA, ("field", vector_from_json, "omega"),
                      ("hamiltonian", form_from_json, "omega")), _cmd_hdw_residual),
    "multiphase": (_parse_multiphase, _cmd_multiphase),
    "volterra": (_parse_volterra, _cmd_volterra),
    "curve-check": ((("map", smooth_map_from_json),
                     ("gamma", vector_from_json, "map.source"),
                     ("field", vector_from_json, "map.target"),
                     ("points", _list_of(point_from_json, "must be a nonempty list of points",
                                         1), "map.source")), _cmd_curve_check),
    "bracket": ((OMEGA, ("args", _list_of(form_from_json, "must list at least two forms", 2),
                         "omega")), _cmd_bracket),
    "lie-validate": (_parse_lie_validate, _cmd_lie_validate),
    "comoment": (_parse_comoment, _cmd_comoment),
    "obstruction": ((("action", action_from_json), ("omega", form_from_json, "action"),
                     ("i", read_positive)), _cmd_obstruction),
    "conserved": ((OMEGA, ("hamiltonian", form_from_json, "omega"),
                   ("alpha", form_from_json, "omega")), _cmd_conserved),
    "move": (_parse_move, _cmd_move),
    "verify": (_parse_verify, _cmd_verify),
}


def _error_report(exc: Exception) -> dict:
    """A SchemaError reports its paths, a PlecticError its kind, an input
    that cannot be read is an IOError, and any other exception is an
    InternalError."""
    if isinstance(exc, SchemaError):
        return {"error": {"kind": "SchemaError", "detail": exc.violations}}
    if isinstance(exc, PlecticError):
        return {"error": {"kind": exc.kind, "detail": str(exc)}}
    if isinstance(exc, OSError):
        return {"error": {"kind": "IOError", "detail": str(exc)}}
    detail = f"{type(exc).__name__}: {exc}"
    return {"error": {"kind": "InternalError", "detail": detail}}


def run(req: Request) -> Tuple[dict, int]:
    """Dispatch a validated request; returns (report, exit code)."""
    try:
        return COMMANDS[req.command][1](req)
    except Exception as exc:
        return _error_report(exc), EXIT_ERROR


def _argv_error(message):
    """An argv error is malformed input too: exit 1 with a report, not argparse's 2."""
    raise SchemaError([f"argv: {message}"])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="plectic",
        description="exact multisymplectic geometry workbench",
    )
    parser.error = _argv_error
    parser.add_argument("--sign", choices=(hdw.SIGN_HDW, hdw.SIGN_FIN1),
                        default=hdw.SIGN_HDW, dest="sign_convention")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        sp = sub.add_parser(cmd)
        sp.add_argument("input", nargs="?", default="-",
                        help="payload JSON file, or - for stdin")
    try:
        args = parser.parse_args(argv)
        if args.input == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(args.input, "rb") as fh:
                raw = fh.read()
        req = parse_request(raw, args.command, {"sign_convention": args.sign_convention,
                                                "seed": args.seed})
    except Exception as exc:
        report, code, indent = _error_report(exc), EXIT_ERROR, None  # one JSON line
    else:
        report, code = run(req)
        indent = 2
    print(json.dumps(report, sort_keys=True, indent=indent))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
