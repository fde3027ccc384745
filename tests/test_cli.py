import json
import os
import subprocess
import sys
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


def test_verify_checks():
    rep, code = go("verify", {"check": "ring-laws", "dim": 3, "samples": 10}, seed=5)
    assert code == EXIT_OK and rep["ok"]
    rep, code = go("verify", {"check": "exterior", "dim": 4, "samples": 5}, seed=5)
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
    # text rendering
    code3 = main(["--out", "text", "classify", str(payload)])
    out3 = capsys.readouterr().out
    assert "type: ProductType" in out3
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
    with pytest.raises(SchemaError) as err:
        parse_request(raw, "verify", {"seed": "2"})
    assert err.value.violations == ["$.options.seed: must be an integer"]


def run_cli(tmp_path, cmd, payload):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "plectic.cli", cmd, str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


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


def test_exterior_check_needs_two_dimensions(tmp_path):
    with pytest.raises(SchemaError) as err:
        go("verify", {"check": "exterior", "dim": 1})
    assert any(v.startswith("$.dim") for v in err.value.violations)
    got, out, err = run_cli(tmp_path, "verify", {"check": "exterior", "dim": 1})
    assert got == EXIT_ERROR and "Traceback" not in err
    assert json.loads(out)["error"]["kind"] == "SchemaError"


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


def test_parse_fault_honours_out_text(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"omega": 1}))
    assert main(["--out", "text", "classify", str(path)]) == EXIT_ERROR
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "error:" and "  kind: SchemaError" in lines
    assert main(["classify", str(path)]) == EXIT_ERROR  # the default stays one-line JSON
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
    assert main(["--out", "text", "classify", str(path)]) == EXIT_ERROR
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "error:" and "  kind: IOError" in lines


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


@pytest.mark.parametrize("cmd", list(cli.COMMANDS))
def test_float_mode_only_for_classify(tmp_path, capsys, cmd):
    path = tmp_path / "payload.json"
    if cmd == "classify":
        path.write_text(json.dumps({"omega": W6_product(), "point": ["1"] * 6}))
        assert main(["--mode", "float", cmd, str(path)]) == EXIT_OK
        rep = json.loads(capsys.readouterr().out)
        assert rep["mode"] == "float" and "trace_of_J_squared" in rep
        return
    path.write_text("{}")
    assert main(["--mode", "float", cmd, str(path)]) == EXIT_ERROR
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"]["kind"] == "SchemaError"
    assert [v for v in rep["error"]["detail"] if v.startswith("$.options.mode")]


def test_float_trace_is_the_exact_trace_rounded_once():
    # trace(J^2) of w^(1/x2) at x2 = 5/3 is exactly 72/5
    point = ["0", "5/3", "0", "0", "0", "0"]
    rep, code = go("classify", {"omega": W_family("1/x2"), "point": point},
                   mode="float")
    assert code == EXIT_OK and rep["type"] == "ProductType"
    assert rep["trace_of_J_squared"] == "14.4"
