"""Default CLI stdout is pinned byte for byte.

One fixed payload per subcommand.  Each stdout is compared by sha256 with
the digest recorded before the command table was rewritten; a change here
means the default output changed.  The ``flat`` digest was re-pinned when
the product split moved to J's derivation action: the witness prints with
less swell, and ``test_flat_witness_keeps_its_value`` shows that it is the
same value.  The
``move`` digest was re-pinned when ``PolyAuto.compose`` began to fuse the
two middle shears of a move: the report prints five steps instead of six,
and ``test_move_report_keeps_its_values`` shows that the points, the
Jacobian and the volume check read as before.  It was re-pinned again when
the separating linear step became conditional: neither side of this move
repeats a first coordinate, so it prints three shears instead of five
steps, with the same points, Jacobian and volume check.
"""
import hashlib
import json

import pytest

from plectic.cli import COMMANDS, main
from plectic.scalar import parse_expression


def _form(dim, degree, terms, positive=(), kind=None):
    out = {"chart": {"dim": dim, "positive": list(positive)}, "degree": degree,
           "terms": [{"idx": list(i), "coeff": c} for i, c in terms]}
    if kind:
        out["kind"] = kind
    return out


def _vec(dim, terms):
    return _form(dim, 1, terms, kind="multivector")


W3 = _form(3, 3, [((1, 2, 3), "1")])
W4 = _form(4, 4, [((1, 2, 3, 4), "1")])
FAMILY = _form(6, 3, [((1, 3, 5), "1"), ((1, 4, 6), "-1"), ((2, 3, 6), "-1"),
                      ((2, 4, 5), "x2")], positive=[2])
SO3 = [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
       [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
       [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
ABELIAN2_ON_R3 = {
    "algebra": {"dim": 2, "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
    "generators": [_vec(3, [((2,), "1")]), _vec(3, [((3,), "1")])],
}
SO3_SURROGATE = {
    "algebra": {"dim": 3, "c": SO3},
    "generators": [_vec(3, [((i,), "1")]) for i in (1, 2, 3)],
    "surrogate": True,
}

# (flags, subcommand, payload, exit code, sha256 of stdout)
CASES = [
    ([], "classify", {
        "omega": _form(6, 3, [((1, 3, 5), "1"), ((1, 4, 6), "-1"), ((2, 3, 6), "-1"),
                              ((2, 4, 5), "x2^(1/2) - 3")], positive=[2]),
        "point": ["1/2", "4", "0", "-1", "2/3", "5"]},
     0, "8e6ce523dc9f85da030b6ff51fce151d59f540e34cb82d8c71302ceace48d91c"),
    ([], "flat", {"omega": FAMILY}, 0,
     "4f69c514190d2b298b328fb1f0b33ee4fabe972270ca0d0e03b63bf1bb8319cb"),
    ([], "hamvf", {"omega": W4, "hamiltonian": {"degree": 2, "terms": [
        {"idx": [1, 2], "coeff": "x3^2 - x4"}, {"idx": [2, 4], "coeff": "x1*x3"}]}},
     0, "de7fbfe5d403485c2669592e01293a7a5e6c755b7f07f39fab3990a97f8501f2"),
    ([], "hdw-residual", {"omega": W3, "field": _vec(3, [((2,), "x1"), ((3,), "2")]),
                          "hamiltonian": {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]}},
     2, "e5cd5d18bf06594f296082f5b336b4f6cbf608f9b3361e7d768c411b06ffa836"),
    ([], "multiphase", {"n": 2, "N": 2}, 0,
     "876e4f5efa2c1f0eb60cecd6890f8794ee723ae1562aae052e6cd0109ad3a128"),
    ([], "volterra", {"n": 2, "N": 1, "hamiltonian": "(x4^2 + x5^2)/2 + x3",
                      "section": {"q": ["x1 - x2"], "p": [["-1", "1"]]}}, 2,
     "821305aa968da42ead9ce7177656b207240d6ce9f60ec2eff8514eae7447308f"),
    ([], "curve-check", {
        "map": {"source": {"dim": 1, "positive": []}, "target": {"dim": 2, "positive": []},
                "components": ["-x1", "x1^2"]},
        "gamma": _vec(1, [((1,), "1")]), "field": _vec(2, [((1,), "-1"), ((2,), "2*x2")]),
        "points": [["0"], ["1/2"], ["-3"]]}, 2,
     "8b256adb10453ff278a7a705e2cf2351fcfc3410b2d384a6eb7b750f1d40c392"),
    ([], "bracket", {"omega": W4, "args": [
        {"degree": 2, "terms": [{"idx": [1, 2], "coeff": "x3"}]},
        {"degree": 2, "terms": [{"idx": [3, 4], "coeff": "x1*x2"}]},
        {"degree": 2, "terms": [{"idx": [1, 4], "coeff": "x2"}]}]}, 0,
     "520ee7a1ca4977143aea271103dbd1199e32a8aab0a1834eba51d250bf5d123f"),
    ([], "lie-validate", {"algebra": {"dim": 3, "c": SO3}}, 0,
     "f525a383d7e934a99fc13bdd176e88b1b81918ffebaa21e6bd51dd4a7699e99e"),
    ([], "comoment", {"action": ABELIAN2_ON_R3, "omega": W3, "mode": "verify", "maps": [
        [{"idx": [1], "form": {"degree": 1, "terms": [{"idx": [3], "coeff": "x1 + x2"}]}},
         {"idx": [2], "form": {"degree": 1, "terms": [{"idx": [2], "coeff": "-x1"}]}}],
        [{"idx": [1, 2], "form": {"degree": 0, "terms": [{"idx": [], "coeff": "-x1"}]}}]]},
     2, "c3a64795159bf128612dc9b79618111d64b941bd27f939dcb1f429f87079bad3"),
    ([], "obstruction", {"action": SO3_SURROGATE, "omega": W3, "i": 3}, 0,
     "9f838caec869d90849867c161996e82eb5ea8faf5849daf3ecd4294142c2df9e"),
    ([], "conserved", {"omega": W3,
                       "hamiltonian": {"degree": 1, "terms": [{"idx": [1], "coeff": "x3^2"}]},
                       "alpha": {"degree": 1, "terms": [{"idx": [2], "coeff": "x2*x3"}]}},
     0, "fa36fa78a4ac3c5dd3512e171b350ec964019bdfdf1f181c6732735e399931f3"),
    ([], "move", {"n": 3, "src": [["0", "0", "0"], ["1", "i", "2"]],
                  "dst": [["1", "1", "1"], ["1/2-3/4 i", "0", "0"]]}, 0,
     "c935e0c68dc8bde06b4f09d0b2d32917647ef28ed5f0c3065bd25b2c55ff1f34"),
    ([], "verify", {"check": "linfty-relation", "omega": W4, "k": 2, "args": [
        {"degree": 2, "terms": [{"idx": [1, 2], "coeff": "x3"}]},
        {"degree": 2, "terms": [{"idx": [3, 4], "coeff": "x1*x2"}]},
        {"degree": 2, "terms": [{"idx": [1, 4], "coeff": "x2"}]}]}, 0,
     "51e759721d6991a2182df35e952521eb58bb2765a6975f77ba2e27e31b53e980"),
]


def test_cases_cover_every_subcommand():
    assert {cmd for _f, cmd, *_rest in CASES} == set(COMMANDS)


@pytest.mark.parametrize("flags,cmd,payload,code,digest", CASES,
                         ids=[" ".join([*c[0], c[1]]) for c in CASES])
def test_default_stdout_is_pinned(tmp_path, capsys, flags, cmd, payload, code, digest):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main([*flags, cmd, str(path)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# The FAMILY witness as printed while the split was built from projector
# contractions, before the derivation-action split printed it as
# (1/4*x2^(-1/2))/(x2) and (1/4*x2^(1/2))/(x2).
PROJECTOR_SPLIT_WITNESS = {(1, 2, 3, 6): "(1/4*x2^(5/2))/(x2^4)",
                           (1, 2, 4, 5): "(1/4*x2^(7/2))/(x2^4)"}


def test_flat_witness_keeps_its_value(tmp_path, capsys):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"omega": FAMILY}))
    assert main(["flat", str(path)]) == 0
    terms = json.loads(capsys.readouterr().out)["witness"]["terms"]
    assert {tuple(t["idx"]) for t in terms} == set(PROJECTOR_SPLIT_WITNESS)
    for t in terms:
        old = PROJECTOR_SPLIT_WITNESS[tuple(t["idx"])]
        assert parse_expression(t["coeff"], 6) == parse_expression(old, 6)


# The move report's values while a move printed six steps.
SIX_STEP_MOVE = {
    "eval": [{"dst": ["1", "1", "1"], "match": True, "out": ["1", "1", "1"],
              "src": ["0", "0", "0"]},
             {"dst": ["1/2-3/4 i", "0", "0"], "match": True, "out": ["1/2-3/4 i", "0", "0"],
              "src": ["1", "i", "2"]}],
    "jacobian": "1",
    "realified_preserves_volume": True,
}


def test_move_report_keeps_its_values(tmp_path, capsys):
    (payload,) = [p for _f, cmd, p, *_rest in CASES if cmd == "move"]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    assert main(["move", str(path)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert {k: rep[k] for k in SIX_STEP_MOVE} == SIX_STEP_MOVE
    assert len(rep["auto"]["steps"]) == 3
