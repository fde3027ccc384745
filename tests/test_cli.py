import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from plectic import cli
from plectic.cli import (
    EXIT_ERROR,
    EXIT_FAILED_CHECK,
    EXIT_OK,
    main,
    parse_request,
    run,
)
from plectic.errors import SchemaError
from plectic.jsonio import DIM_MAX
from plectic.scalar import EXPONENT_MAX


def go(cmd, payload, **opts):
    req = parse_request(json.dumps(payload).encode(), command=cmd, options=opts)
    return run(req)


def W6_product():
    return {"chart": {"dim": 6, "positive": []}, "degree": 3,
            "terms": [{"idx": [1, 2, 3], "coeff": "1"},
                      {"idx": [4, 5, 6], "coeff": "1"}]}


def W_family(f="x2"):
    return {"chart": {"dim": 6, "positive": [2]}, "degree": 3,
            "terms": [{"idx": [1, 3, 5], "coeff": "1"},
                      {"idx": [1, 4, 6], "coeff": "-1"},
                      {"idx": [2, 3, 6], "coeff": "-1"},
                      {"idx": [2, 4, 5], "coeff": f}]}


def test_classify_product():
    rep, code = go("classify", {"omega": W6_product(), "point": [0] * 6})
    assert code == EXIT_OK
    assert rep["type"] == "ProductType" and rep["trace_sign"] == "+"


def test_flat_commands():
    rep, code = go("flat", {"omega": W_family("x2")})
    assert code == EXIT_OK and rep["flat"] == "NonFlat"
    witness_terms = {tuple(t["idx"]): t["coeff"] for t in rep["witness"]["terms"]}
    assert set(witness_terms) == {(1, 2, 4, 5), (1, 2, 3, 6)}
    rep, code = go("flat", {"omega": W_family("1")})
    assert code == EXIT_OK and rep["flat"] == "Flat"


def test_hamvf_and_negative_answer():
    omega = {"chart": {"dim": 2, "positive": []}, "degree": 2,
             "terms": [{"idx": [1, 2], "coeff": "1"}]}
    ham = {"degree": 0, "terms": [{"idx": [], "coeff": "x1"}]}
    rep, code = go("hamvf", {"omega": omega, "hamiltonian": ham})
    assert code == EXIT_OK and rep["verdict"] == "Hamiltonian"
    assert rep["field"]["terms"] == [{"idx": [2], "coeff": "1"}]
    prod = W6_product()
    bad = {"degree": 1, "terms": [{"idx": [4], "coeff": "x1"}]}
    rep, code = go("hamvf", {"omega": prod, "hamiltonian": bad})
    assert code == EXIT_OK and rep["verdict"] == "NotHamiltonian"


def test_hdw_residual_exit_codes():
    omega = {"chart": {"dim": 3, "positive": []}, "degree": 3,
             "terms": [{"idx": [1, 2, 3], "coeff": "1"}]}
    ham = {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]}
    field = {"kind": "multivector", "degree": 1,
             "terms": [{"idx": [2], "coeff": "-1"}]}
    rep, code = go("hdw-residual", {"omega": omega, "field": field,
                                    "hamiltonian": ham})
    assert code == EXIT_OK and rep["zero"]
    field_bad = {"kind": "multivector", "degree": 1,
                 "terms": [{"idx": [2], "coeff": "1"}]}
    rep, code = go("hdw-residual", {"omega": omega, "field": field_bad,
                                    "hamiltonian": ham})
    assert code == EXIT_FAILED_CHECK and not rep["zero"]


def test_multiphase_and_volterra():
    rep, code = go("multiphase", {"n": 2, "N": 1})
    assert code == EXIT_OK
    assert rep["closed"] and rep["nondegenerate"]
    assert rep["labels"] == ["x1", "x2", "q1", "p1_1", "p2_1", "p"]
    rep, code = go("volterra", {
        "n": 2, "N": 1,
        "hamiltonian": "(x4^2 + x5^2)/2",
        "section": {"q": ["x1"], "p": [["-1", "0"]]},
    })
    assert code == EXIT_OK and rep["zero"]
    rep, code = go("volterra", {
        "n": 2, "N": 1,
        "hamiltonian": "(x4^2 + x5^2)/2",
        "section": {"q": ["x1^2"], "p": [["-2*x1", "0"]]},
    })
    assert code == EXIT_FAILED_CHECK and not rep["zero"]
    assert rep["residuals"][0] == "2"


def test_curve_check():
    payload = {
        "map": {
            "source": {"dim": 1, "positive": []},
            "target": {"dim": 2, "positive": []},
            "components": ["-x1", "5"],
        },
        "gamma": {"chart": {"dim": 1, "positive": []}, "kind": "multivector",
                  "degree": 1, "terms": [{"idx": [1], "coeff": "1"}]},
        "field": {"chart": {"dim": 2, "positive": []}, "kind": "multivector",
                  "degree": 1, "terms": [{"idx": [1], "coeff": "-1"}]},
        "points": [["0"], ["1/2"], ["-3"]],
    }
    rep, code = go("curve-check", payload)
    assert code == EXIT_OK and rep["all"]
    payload["map"]["components"] = ["x1", "5"]
    rep, code = go("curve-check", payload)
    assert code == EXIT_FAILED_CHECK and rep["results"] == [False, False, False]


def test_bracket_command():
    omega = {"chart": {"dim": 3, "positive": []}, "degree": 3,
             "terms": [{"idx": [1, 2, 3], "coeff": "1"}]}
    a = {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]}
    b = {"degree": 1, "terms": [{"idx": [2], "coeff": "x1"}]}
    rep, code = go("bracket", {"omega": omega, "args": [a, b]})
    assert code == EXIT_OK
    assert rep["result"]["terms"] == [{"idx": [1], "coeff": "1"}]


def test_lie_validate():
    rep, code = go("lie-validate", {"algebra": {"dim": 3, "c": [
        [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
        [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
        [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    ]}})
    assert code == EXIT_OK and rep["valid"] and rep["semisimple"]
    bad = {"algebra": {"dim": 3, "c": [
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, -1], [0, 0, 0], [0, 1, 0]],
        [[0, -1, 0], [0, -1, 0], [0, 0, 0]],
    ]}}
    rep, code = go("lie-validate", bad)
    assert code == EXIT_FAILED_CHECK and rep["valid"] is False


def abelian_volume_payload():
    return {
        "action": {
            "algebra": {"dim": 2, "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
            "generators": [
                {"chart": {"dim": 3, "positive": []}, "kind": "multivector",
                 "degree": 1, "terms": [{"idx": [2], "coeff": "1"}]},
                {"chart": {"dim": 3, "positive": []}, "kind": "multivector",
                 "degree": 1, "terms": [{"idx": [3], "coeff": "1"}]},
            ],
        },
        "omega": {"degree": 3, "terms": [{"idx": [1, 2, 3], "coeff": "1"}]},
    }


def test_comoment_command():
    payload = abelian_volume_payload()
    payload["mode"] = "from-potential"
    payload["potential"] = {"degree": 2, "terms": [{"idx": [2, 3], "coeff": "x1"}]}
    rep, code = go("comoment", payload)
    assert code == EXIT_OK and rep["verified"]
    maps = rep["comoment"]["maps"]
    verify_payload = abelian_volume_payload()
    verify_payload["mode"] = "verify"
    verify_payload["maps"] = maps
    rep, code = go("comoment", verify_payload)
    assert code == EXIT_OK and rep["verified"]
    # break f1
    maps_bad = json.loads(json.dumps(maps))
    maps_bad[0][0]["form"]["terms"] = [{"idx": [3], "coeff": "x1 + x2"}]
    verify_payload["maps"] = maps_bad
    rep, code = go("comoment", verify_payload)
    assert code == EXIT_FAILED_CHECK and not rep["verified"]


F1, F2 = {"degree": 1, "terms": []}, {"degree": 0, "terms": []}


@pytest.mark.parametrize("maps,violation", [
    ([[{"idx": [1], "form": F1}], [{"idx": [1, 2], "form": F2}]],
     "$.maps[0]: must list every 1-subset of 1..2; missing [[2]]"),
    ([[{"idx": [1], "form": F1}, {"idx": [7], "form": F1}], [{"idx": [1, 2], "form": F2}]],
     "$.maps[0][1].idx: must list 1 strictly increasing indices in 1..2"),
    ([[{"idx": [1], "form": F1}, {"idx": [2], "form": F1}], [{"idx": [2, 1], "form": F2}]],
     "$.maps[1][0].idx: must list 2 strictly increasing indices in 1..2"),
    ([[{"idx": [1], "form": F1}, {"idx": [1], "form": F1}], [{"idx": [1, 2], "form": F2}]],
     "$.maps[0][1].idx: repeats an earlier idx"),
    ([[{"idx": [[1]], "form": F1}], []],
     "$.maps[0][0].idx: must list 1 strictly increasing indices in 1..2"),
], ids=["missing", "out-of-range", "decreasing", "repeated", "nested"])
def test_comoment_verify_schema_checks_the_maps(tmp_path, capsys, maps, violation):
    payload = abelian_volume_payload()
    payload.update(mode="verify", maps=maps)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main(["comoment", str(path)]) == EXIT_ERROR
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == {"kind": "SchemaError", "detail": [violation]}


def test_obstruction_command():
    payload = abelian_volume_payload()
    payload["i"] = 2
    rep, code = go("obstruction", payload)
    assert code == EXIT_OK and rep["vanishes"] is True


def test_conserved_command():
    rep, code = go("conserved", {
        "omega": {"chart": {"dim": 3, "positive": []}, "degree": 3,
                  "terms": [{"idx": [1, 2, 3], "coeff": "1"}]},
        "hamiltonian": {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]},
        "alpha": {"degree": 0, "terms": [{"idx": [], "coeff": "x2"}]},
    })
    assert code == EXIT_OK and rep["class"] == "LocallyConserved"


def test_move_command():
    rep, code = go("move", {"n": 2,
                            "src": [["0", "0"], ["1", "i"]],
                            "dst": [["1", "1"], ["0", "2-i"]]})
    assert code == EXIT_OK
    assert rep["jacobian"] == "1"
    assert rep["realified_preserves_volume"] is True
    assert all(r["match"] for r in rep["eval"])


def test_move_fixed_points():
    rep, code = go("move", {"n": 2, "src": [["1", "2"]], "dst": [["1", "2"]]})
    assert code == EXIT_OK
    assert all(r["match"] for r in rep["eval"])
    assert rep["jacobian"] == "1"


def test_move_dimension_is_bounded(tmp_path):
    """Re(dz1^..^dzn) has 2^(n-1) terms, each pulled back through C(2n, n)
    minors, so the schema refuses an n above its bound before any work."""
    n_max = cli._MOVE_N_MAX
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        go("move", {"n": n_max + 1, "src": [], "dst": []})
    assert time.perf_counter() - start < 0.1
    assert err.value.violations == [f"$.n: must be an integer in 2..{n_max}"]
    got, out, err = run_cli(tmp_path, "move", {"n": n_max + 1, "src": [], "dst": []})
    assert got == EXIT_ERROR and "Traceback" not in err
    assert json.loads(out)["error"]["detail"][0].startswith("$.n: ")
    zero, e1 = [0] * n_max, [1] + [0] * (n_max - 1)
    rep, code = go("move", {"n": n_max, "src": [zero, e1],
                            "dst": [zero[1:] + [1], zero[1:] + [2]]})
    assert code == EXIT_OK and rep["realified_preserves_volume"] is True
    assert all(r["match"] for r in rep["eval"])


def test_move_point_count_is_bounded(tmp_path):
    """The interpolation shears have degree k - 1 in the point count k, so the
    schema refuses more than ``_MOVE_POINTS_MAX`` points before any work, in
    ``src`` before ``dst`` is read; that many points still move."""
    k_max = cli._MOVE_POINTS_MAX
    many = [[j, 0] for j in range(k_max + 1)]
    payload = {"n": 2, "src": many, "dst": [[0, j] for j in range(k_max + 1)]}
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        go("move", payload)
    assert time.perf_counter() - start < 0.1
    assert err.value.violations == [f"$.src: must have at most {k_max} entries"]
    got, out, err = run_cli(tmp_path, "move", payload)
    assert got == EXIT_ERROR and "Traceback" not in err
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    assert json.loads(out)["error"]["detail"][0].startswith("$.src: ")
    with pytest.raises(SchemaError, match=r"\$\.dst: must have at most"):
        go("move", dict(payload, src=many[:k_max]))
    rep, code = go("move", {"n": 2, "src": many[:k_max], "dst": payload["dst"][1:]})
    assert code == EXIT_OK and rep["realified_preserves_volume"] is True
    assert all(r["match"] for r in rep["eval"])


@pytest.mark.parametrize("check,key,bound", [
    ("ring-laws", "dim", DIM_MAX),
    ("ring-laws", "samples", cli._VERIFY_SAMPLES_MAX),
])
def test_verify_dim_and_samples_are_bounded(tmp_path, check, key, bound):
    """The schema refuses a dim or a sample count above its bound before any
    work; the bound itself is still answered."""
    payload = {"check": check, key: bound + 1}
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        go("verify", payload)
    assert time.perf_counter() - start < 0.1
    assert err.value.violations == [f"$.{key}: must be an integer in 1..{bound}"]
    got, out, err = run_cli(tmp_path, "verify", payload)
    assert got == EXIT_ERROR and "Traceback" not in err
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    rep = json.loads(out)["error"]
    assert rep["kind"] == "SchemaError" and rep["detail"][0].startswith(f"$.{key}: ")
    small = {"dim": 2, "samples": 1}
    rep, code = go("verify", dict(small, check=check, **{key: bound}))
    assert code == EXIT_OK and rep["ok"] is True


def test_verify_checks():
    rep, code = go("verify", {"check": "ring-laws", "dim": 3, "samples": 10}, seed=5)
    assert code == EXIT_OK and rep["ok"]
    omega = {"chart": {"dim": 3, "positive": []}, "degree": 3,
             "terms": [{"idx": [1, 2, 3], "coeff": "1"}]}
    args = [
        {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]},
        {"degree": 1, "terms": [{"idx": [2], "coeff": "x1"}]},
        {"degree": 1, "terms": [{"idx": [3], "coeff": "x2"}]},
    ]
    rep, code = go("verify", {"check": "linfty-relation", "omega": omega,
                              "k": 2, "args": args})
    assert code == EXIT_OK and rep["ok"]
    rep, code = go("verify", {"check": "jacobiator", "omega": omega, "args": args})
    assert code == EXIT_OK and rep["ok"]
    frame = [
        {"chart": {"dim": 3, "positive": []}, "kind": "multivector",
         "degree": 1, "terms": [{"idx": [1], "coeff": "1"}]},
        {"chart": {"dim": 3, "positive": []}, "kind": "multivector",
         "degree": 1, "terms": [{"idx": [2], "coeff": "1"},
                                 {"idx": [3], "coeff": "x1"}]},
    ]
    rep, code = go("verify", {"check": "involutive", "frame": frame})
    assert code == EXIT_FAILED_CHECK and not rep["ok"]
    assert rep["witness_bracket"]["terms"] == [{"idx": [3], "coeff": "1"}]


def test_schema_errors_with_paths():
    with pytest.raises(SchemaError) as err:
        go("classify", {"omega": {"chart": {"dim": 6}, "degree": 3,
                                  "terms": [{"idx": [1, 2], "coeff": "1"}]},
                        "point": [0] * 6})
    assert any("terms[0].idx" in v for v in err.value.violations)
    with pytest.raises(SchemaError) as err:
        go("classify", {"omega": {"chart": {"dim": 6}, "degree": 3,
                                  "terms": [{"idx": [1, 2, 3], "coeff": "sin(x2)"}]},
                        "point": [0] * 6})
    assert any("coeff" in v for v in err.value.violations)
    with pytest.raises(SchemaError):
        go("classify", {"point": [0] * 6})


@pytest.mark.parametrize("cmd,payload,violation", [
    ("classify", {"point": [0, 0, 1.5, 0, 0, 0]},
     "$.point[2]: must be an integer or rational string"),
    ("classify", {"point": [0, 0, "a", 0, 0, 0]},
     "$.point[2]: bad rational literal 'a': Invalid literal for Fraction: 'a'"),
    ("lie-validate", {"algebra": {"dim": 2, "c": [[[0, 0], [0, 0.5]], [[0, 0], [0, 0]]]}},
     "$.algebra.c[0][1][1]: must be an integer or rational string"),
    ("lie-validate", {"algebra": {"dim": 2, "c": [[[0, 0], [0, "x"]], [[0, 0], [0, 0]]]}},
     "$.algebra.c[0][1][1]: bad rational literal 'x': Invalid literal for Fraction: 'x'"),
])
def test_rational_entries_share_paths_and_messages(cmd, payload, violation):
    if cmd == "classify":
        payload = {"omega": W6_product(), **payload}
    with pytest.raises(SchemaError) as err:
        go(cmd, payload)
    assert err.value.violations == [violation]


def _vec3(i):
    return {"chart": {"dim": 3, "positive": []}, "kind": "multivector", "degree": 1,
            "terms": [{"idx": [i], "coeff": "1"}]}


def _form3(degree, coeff="1"):
    return {"chart": {"dim": 3, "positive": []}, "degree": degree,
            "terms": [{"idx": list(range(1, degree + 1)), "coeff": coeff}]}


LINE_ACTION = {"algebra": {"dim": 1, "c": [[[0]]]}, "generators": [_vec3(2)]}


@pytest.mark.parametrize("cmd,payload,violation", [
    ("multiphase", {"n": True, "N": 1}, "$.n: must be an integer >= 1"),
    ("verify", {"check": "ring-laws", "samples": True},
     "$.samples: must be a positive integer"),
    ("classify", {"omega": {"chart": {"dim": 6}, "degree": 3,
                            "terms": [{"idx": [True, 2, 3], "coeff": "1"}]},
                  "point": [0] * 6},
     "$.omega.terms[0].idx: indices must lie in 1..6"),
    ("classify", {"omega": W6_product(), "point": [0, True, 0, 0, 0, 0]},
     "$.point[1]: must be an integer or rational string"),
    ("comoment", {"action": LINE_ACTION, "omega": _form3(3), "mode": "from-potential",
                  "potential": _form3(2, "x3"), "potential_sign": True},
     "$.potential_sign: must be 1 or -1"),
])
def test_a_json_boolean_is_not_an_integer(cmd, payload, violation):
    with pytest.raises(SchemaError) as err:
        go(cmd, payload)
    assert err.value.violations == [violation]


@pytest.mark.parametrize("cmd,payload,detail", [
    ("comoment", {"action": LINE_ACTION, "omega": _form3(1), "mode": "verify", "maps": []},
     "a comoment needs a form of degree >= 2, not 1"),
    ("comoment", {"action": LINE_ACTION, "omega": _form3(0), "mode": "verify", "maps": []},
     "a comoment needs a form of degree >= 2, not 0"),
    ("comoment", {"action": LINE_ACTION, "omega": _form3(0), "mode": "from-potential",
                  "potential": _form3(0)},
     "a comoment needs a form of degree >= 2, not 0"),
    ("verify", {"check": "standard-subspace", "omega": _form3(0), "frame": [_vec3(1)]},
     "a standard subspace needs a form of degree >= 1"),
    ("hamvf", {"omega": _form3(1), "hamiltonian": _form3(0, "x1")},
     "a Hamiltonian vector field needs a form of degree >= 2, not 1"),
    ("hamvf", {"omega": _form3(0), "hamiltonian": _form3(0, "x1")},
     "a Hamiltonian vector field needs a form of degree >= 2, not 0"),
    ("hdw-residual", {"omega": _form3(1), "field": _vec3(1), "hamiltonian": _form3(0, "x1")},
     "an HDW residual needs a form of degree >= 2, not 1"),
    ("bracket", {"omega": _form3(1), "args": [_form3(0, "x1"), _form3(0, "x2")]},
     "an observable needs a form of degree >= 2, not 1"),
    ("conserved", {"omega": _form3(1), "hamiltonian": _form3(0, "x1"),
                   "alpha": _form3(0, "x2")},
     "an observable needs a form of degree >= 2, not 1"),
    ("verify", {"check": "jacobiator", "omega": _form3(1),
                "args": [_form3(0, "x1"), _form3(0, "x2"), _form3(0, "x3")]},
     "an observable needs a form of degree >= 2, not 1"),
    ("verify", {"check": "linfty-relation", "k": 2, "omega": _form3(1),
                "args": [_form3(0, "x1"), _form3(0, "x2"), _form3(0, "x3")]},
     "an observable needs a form of degree >= 2, not 1"),
    ("obstruction", {"action": LINE_ACTION, "omega": _form3(1), "i": 1},
     "an obstruction cochain needs a form of degree >= 2, not 1"),
    ("obstruction", {"action": LINE_ACTION, "omega": _form3(0), "i": 1},
     "an obstruction cochain needs a form of degree >= 2, not 0"),
])
def test_a_form_below_the_needed_degree_is_a_degree_error(tmp_path, capsys, cmd, payload,
                                                          detail):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main([cmd, str(path)]) == EXIT_ERROR
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"error": {"kind": "DegreeError", "detail": detail}}


def test_form_json_roundtrip_byte_identical():
    from plectic.jsonio import form_from_json, form_to_json

    canonical = {
        "chart": {"dim": 6, "positive": [2]},
        "degree": 3,
        "terms": [
            {"idx": [1, 3, 5], "coeff": "1"},
            {"idx": [2, 4, 5], "coeff": "x2^(1/2)"},
        ],
    }
    parsed = form_from_json(canonical)
    assert form_to_json(parsed) == canonical
    blob = json.dumps(canonical, sort_keys=True)
    again = json.dumps(form_to_json(form_from_json(json.loads(blob))), sort_keys=True)
    assert blob == again


def test_main_end_to_end(tmp_path, capsys):
    payload = tmp_path / "req.json"
    payload.write_text(json.dumps({"omega": W6_product(), "point": [0] * 6}))
    code = main(["classify", str(payload)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["type"] == "ProductType"
    # identical invocation produces byte-identical output
    code2 = main(["classify", str(payload)])
    out2 = capsys.readouterr().out
    assert out == out2
    # malformed input exits 1
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["classify", str(bad)]) == EXIT_ERROR
    capsys.readouterr()


def test_parse_request_checks_the_command_and_seed():
    raw = json.dumps({"check": "ring-laws", "dim": 2, "samples": 3}).encode()
    req = parse_request(raw, "verify", {"seed": 2})
    assert req.seed == 2
    rep, code = run(req)
    assert code == EXIT_OK and rep["ok"]
    with pytest.raises(SchemaError) as err:
        parse_request(b"{}", "nope")
    assert [v for v in err.value.violations if v.startswith("$.command")]
    for seed in ("2", True):
        with pytest.raises(SchemaError) as err:
            parse_request(raw, "verify", {"seed": seed})
        assert err.value.violations == ["$.options.seed: must be an integer"]


def run_cli(tmp_path, cmd, payload, flags=()):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "plectic.cli", *flags, cmd, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("flags,cmd,detail", [
    (["--mode", "float"], "classify", "argv: argument command: invalid choice: 'float'"),
    ([], "no-such-command", "argv: argument command: invalid choice: 'no-such-command'"),
    (["--seed", "x"], "verify", "argv: argument --seed: invalid int value: 'x'"),
], ids=["unknown-flag", "unknown-subcommand", "bad-flag-value"])
def test_an_argv_error_is_a_one_line_json_report(tmp_path, flags, cmd, detail):
    """A mistyped flag or subcommand is malformed input: exit 1 with a
    one-line sorted-key SchemaError report on stdout, not argparse's exit 2
    (the code of a violated property) with usage text on stderr."""
    got, out, err = run_cli(tmp_path, cmd, {"omega": W6_product(), "point": [0] * 6}, flags)
    assert got == EXIT_ERROR and "Traceback" not in err
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"
    rep = json.loads(out)["error"]
    assert rep["kind"] == "SchemaError" and rep["detail"][0].startswith(detail)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == EXIT_OK and "usage: plectic" in capsys.readouterr().out


@pytest.mark.parametrize("x2,code,kind", [
    (str(10**400), EXIT_ERROR, "IrrationalValue"),
    (str(10**399), EXIT_OK, None),
], ids=["10^400", "10^399"])
def test_cube_root_coefficient_at_huge_point(tmp_path, x2, code, kind):
    payload = {"omega": W_family("x2^(1/3)"), "point": ["1", x2, "0", "0", "0", "0"]}
    got, out, err = run_cli(tmp_path, "classify", payload)
    assert "Traceback" not in err
    rep = json.loads(out)
    assert got == code
    if kind:
        assert rep["error"]["kind"] == kind
    else:
        assert rep["type"] in ("ProductType", "ComplexType", "TangentType")


def test_library_fault_is_reported_by_its_kind_in_process():
    payload = {"omega": W_family("x2^(1/3)"), "point": ["1", "2", "0", "0", "0", "0"]}
    rep, code = go("classify", payload)
    assert code == EXIT_ERROR
    assert set(rep) == {"error"} and set(rep["error"]) == {"kind", "detail"}
    assert rep["error"]["kind"] == "IrrationalValue"
    assert "irrational" in rep["error"]["detail"]


def test_internal_fault_is_reported_as_json(monkeypatch):
    def broken(req):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.COMMANDS, "flat", (cli.COMMANDS["flat"][0], broken))
    rep, code = go("flat", {"omega": W_family("1")})
    assert code == EXIT_ERROR
    assert rep == {"error": {"kind": "InternalError", "detail": "ZeroDivisionError: boom"}}


def test_parse_fault_in_main_is_reported_as_json(tmp_path, capsys, monkeypatch):
    def broken(payload):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(cli.COMMANDS, "flat", (broken, cli.COMMANDS["flat"][1]))
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"omega": W_family("1")}))
    assert main(["flat", str(path)]) == EXIT_ERROR
    rep = json.loads(capsys.readouterr().out)
    assert rep == {"error": {"kind": "InternalError", "detail": "ZeroDivisionError: boom"}}


def test_parse_fault_is_one_line_json(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"omega": 1}))
    assert main(["classify", str(path)]) == EXIT_ERROR
    assert capsys.readouterr().out == json.dumps(
        {"error": {"kind": "SchemaError", "detail": ["$.omega: must be an object"]}},
        sort_keys=True) + "\n"


def test_unreadable_input_file_is_reported_like_a_parse_fault(tmp_path, capsys):
    path = tmp_path / "missing.json"
    assert main(["classify", str(path)]) == EXIT_ERROR
    out = capsys.readouterr().out
    detail = json.loads(out)["error"]["detail"]
    assert "missing.json" in detail
    assert out == json.dumps({"error": {"kind": "IOError", "detail": detail}},
                             sort_keys=True) + "\n"  # key-sorted, one line


@pytest.mark.parametrize("literal", ["1e3", "1.5", "1_0"])
def test_decimal_exponent_and_underscore_literals_are_refused(literal):
    msg = f"bad rational literal {literal!r}: write an integer or p/q"
    with pytest.raises(SchemaError) as err:
        go("classify", {"omega": W6_product(), "point": [0, 0, literal, 0, 0, 0]})
    assert err.value.violations == [f"$.point[2]: {msg}"]
    c = [[[0, 0], [0, literal]], [[0, 0], [0, 0]]]
    with pytest.raises(SchemaError) as err:
        go("lie-validate", {"algebra": {"dim": 2, "c": c}})
    assert err.value.violations == [f"$.algebra.c[0][1][1]: {msg}"]


def test_a_chart_dimension_over_the_bound_is_refused_at_once(tmp_path):
    """Every term keeps an exponent tuple as long as the chart's dim: a
    218-byte hamvf payload with dim 100,000 took 64 MiB before the bound.  The
    schema refuses it before any term is read, and the bound is accepted."""
    omega = {"chart": {"dim": 100_000}, "degree": 2,
             "terms": [{"idx": [1, 2], "coeff": "1"}, {"idx": [3, 4], "coeff": "1"}]}
    hamiltonian = {"degree": 0, "terms": [{"idx": [], "coeff": "x1"}]}
    payload = {"omega": omega, "hamiltonian": hamiltonian}
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        go("hamvf", payload)
    assert time.perf_counter() - start < 0.1
    assert err.value.violations == [f"$.omega.chart.dim: must be an integer in 1..{DIM_MAX}"]
    got, out, err = run_cli(tmp_path, "hamvf", payload)
    assert got == EXIT_ERROR and "Traceback" not in err
    assert json.loads(out)["error"]["detail"] == [
        f"$.omega.chart.dim: must be an integer in 1..{DIM_MAX}"]
    omega["chart"]["dim"] = DIM_MAX
    req = parse_request(json.dumps(payload).encode(), "hamvf")
    assert req.parsed["omega"].chart.dim == DIM_MAX


@pytest.mark.parametrize("n,N", [(40, 40), (3, 4), (4, 3), (1, 8), (8, 1)])
def test_a_multiphase_model_over_the_chart_bound_is_refused_at_once(tmp_path, n, N):
    """multiphase and volterra build a model chart of dim n + N + nN + 1; the
    17-byte payload {"n": 40, "N": 40} took 47.6 s and 1,050 MiB before that
    chart got the payload bound, which refuses it before any work."""
    msg = f"$: n + N + nN + 1 must be at most {DIM_MAX}"
    for cmd in ("multiphase", "volterra"):
        start = time.perf_counter()
        with pytest.raises(SchemaError) as err:
            go(cmd, {"n": n, "N": N})
        assert time.perf_counter() - start < 0.1
        assert err.value.violations == [msg]
    got, out, err = run_cli(tmp_path, "multiphase", {"n": n, "N": N})
    assert got == EXIT_ERROR and "Traceback" not in err
    assert json.loads(out) == {"error": {"kind": "SchemaError", "detail": [msg]}}


def test_an_exponent_over_the_bound_is_a_schema_error(tmp_path):
    """The 96-byte flat payload with coefficient x1^123456789 did not end
    within 60 s before exponents got the bound scalar.EXPONENT_MAX; the
    parser now refuses it, reported at the coefficient's path."""
    omega = W6_product()
    omega["terms"][0]["coeff"] = "x1^123456789"
    msg = ("$.omega.terms[0].coeff: bad expression: "
           f"exponent 123456789 is over the bound {EXPONENT_MAX}")
    start = time.perf_counter()
    with pytest.raises(SchemaError) as err:
        go("flat", {"omega": omega})
    assert time.perf_counter() - start < 0.1
    assert err.value.violations == [msg]
    got, out, err = run_cli(tmp_path, "flat", {"omega": omega})
    assert got == EXIT_ERROR and "Traceback" not in err
    assert out == json.dumps({"error": {"kind": "SchemaError", "detail": [msg]}},
                             sort_keys=True) + "\n"
    omega["terms"][0]["coeff"] = f"x1^{EXPONENT_MAX}"
    rep, code = go("flat", {"omega": omega})
    assert code == EXIT_OK and rep["type"] == "ProductType"


@pytest.mark.parametrize("n,N", [(3, 3), (1, 7), (7, 1)])
def test_the_largest_multiphase_models_are_answered(n, N):
    """The models of dim exactly DIM_MAX are admitted and answered."""
    rep, code = go("multiphase", {"n": n, "N": N})
    assert code == EXIT_OK and rep["chart"]["dim"] == n + N + n * N + 1 == DIM_MAX
    assert rep["closed"] is True and rep["nondegenerate"] is True
