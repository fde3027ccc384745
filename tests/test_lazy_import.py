"""``import plectic`` registers every layer but loads none; a CLI call loads
only the layers its command uses, and the package's public names are the
objects of their home modules.

A layer that is registered but not loaded is a ``importlib.util._LazyModule``
in ``sys.modules``; any attribute read on it (``__dict__`` and ``__spec__``
included) loads it, so the checks below test ``type(m) is types.ModuleType``
and read nothing else.
"""
import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plectic

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS = ("scalar", "record", "exterior", "linalg", "catalog", "classify", "hdw", "linfty",
          "liesym", "mover", "jsonio")

# the modules every CLI call loads: the CLI's own imports and argparse's sign choices
BASE = {"errors", "scalar", "record", "exterior", "hdw", "jsonio"}
W6 = {"chart": {"dim": 6}, "degree": 3,
      "terms": [{"idx": [1, 2, 3], "coeff": "1"}, {"idx": [4, 5, 6], "coeff": "1"}]}
CALLS = [
    ("classify", {"omega": W6, "point": [0] * 6}, BASE | {"classify"}),
    ("move", {"n": 2, "src": [["1", "0"], ["1", "1"]], "dst": [["0", "2"], ["0", "i"]]},
     BASE | {"linalg", "catalog", "mover"}),
    ("hamvf", {"omega": {"chart": {"dim": 3}, "degree": 3,
                         "terms": [{"idx": [1, 2, 3], "coeff": "1"}]},
               "hamiltonian": {"degree": 1, "terms": [{"idx": [1], "coeff": "x2"}]}},
     BASE | {"linalg"}),
    ("verify", {"check": "ring-laws", "dim": 3, "samples": 5}, BASE),
]

# every name that ``plectic`` re-exported when its __init__ imported each layer eagerly
PUBLIC = {
    "scalar": ("GaussianRational", "RationalExpr", "ScalarExpr", "parse_expression"),
    "exterior": ("Chart", "DiffForm", "MultiVec", "SmoothMap", "chart", "ext_d", "interior",
                 "lie_derivative", "poincare_homotopy", "pullback", "pushforward_at", "wedge"),
    "classify": ("classify6", "extract_acs", "flatness_report", "hitchin_endomorphism",
                 "involutive", "nijenhuis", "nondegenerate", "split_product",
                 "verify_standard_subspace"),
    "hdw": ("ham_curve_check", "ham_vector_field", "hamilton_volterra_residual",
            "hdw_residual", "multiphase_forms"),
    "linfty": ("jacobiator_identity_residual", "l_k", "linfty_relation_residual",
               "make_observable"),
    "liesym": ("CEOperators", "LieAction", "LieAlgebraData", "canonical_three_form",
               "comoment_from_potential", "comoment_verify", "conserved_classify",
               "killing_form", "obstruction_cochain"),
    "mover": ("jacobian_determinant", "move_points", "realify_and_check"),
}

LOADED = ("sorted(n[8:] for n, m in sys.modules.items()"
          " if n.startswith('plectic.') and type(m) is types.ModuleType)")


def _python(code, *args, cwd=None):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-W", "error", "-c", code, *args],
                          capture_output=True, text=True, env=env, cwd=cwd, timeout=60)


def test_import_registers_every_layer_and_loads_none():
    code = ("import sys, types; import plectic; print(" + LOADED + "); "
            "print(sorted(n[8:] for n in sys.modules if n.startswith('plectic.'))); "
            "from plectic import classify6; "
            "print(classify6 is sys.modules['plectic.classify'].classify6); print(" + LOADED
            + ")")
    proc = _python(code)
    assert proc.returncode == 0, proc.stderr
    loaded, registered, same, after = proc.stdout.splitlines()
    assert loaded == str(["errors"])
    assert registered == str(sorted(("errors",) + LAYERS))
    assert same == "True"
    assert set(ast.literal_eval(after)) == {"errors", "scalar", "record", "exterior", "classify"}


@pytest.mark.parametrize("command,payload,layers", CALLS, ids=[c[0] for c in CALLS])
def test_a_cli_call_loads_only_the_layers_its_command_uses(tmp_path, command, payload,
                                                           layers):
    """Run through runpy as ``__main__`` under ``-W error``, as ``python -W error
    -m plectic.cli`` runs it: runpy's warning about a module already in
    sys.modules, or any warning of a lazy load, fails the call."""
    (tmp_path / "in.json").write_text(json.dumps(payload))
    code = ("import runpy, sys, types\nsys.argv[0] = 'plectic'\ntry:\n"
            "    runpy.run_module('plectic.cli', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n    code = exc.code\n"
            "print(code, " + LOADED + ", file=sys.stderr)")
    proc = _python(code, command, "in.json", cwd=tmp_path)
    exit_code, _, loaded = proc.stderr.strip().partition(" ")
    assert exit_code == "0", proc.stderr
    assert "error" not in json.loads(proc.stdout)
    assert set(ast.literal_eval(loaded)) == layers


@pytest.mark.parametrize("layer,name", [(m, n) for m, names in PUBLIC.items() for n in names])
def test_public_names_are_the_objects_of_their_home_modules(layer, name):
    home = getattr(importlib.import_module(f"plectic.{layer}"), name)
    scope = {}
    exec(f"from plectic import {name}", scope)
    assert getattr(plectic, name) is home
    assert scope[name] is home


def test_layers_are_package_attributes_and_unknown_names_raise():
    for layer in ("errors",) + LAYERS:
        assert getattr(plectic, layer) is sys.modules[f"plectic.{layer}"]
    scope = {}
    exec("from plectic import *", scope)
    assert {n for names in PUBLIC.values() for n in names} <= set(scope)
    with pytest.raises(AttributeError, match="no_such_name"):
        plectic.__getattr__("no_such_name")
    with pytest.raises(ImportError):
        exec("from plectic import no_such_name", {})
