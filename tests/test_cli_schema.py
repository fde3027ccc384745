"""Malformed payloads: every schema report is pinned per subcommand.

Each payload of ``test_cli_stdout.CASES``, plus a few that reach the other
``verify`` checks and ``comoment``'s from-potential mode, is mutated
deterministically: every object key is deleted once, and every value at
every depth is replaced by each of ``BAD_VALUES``.  The sorted-key JSON
report and exit code of each mutation are hashed, one sha256 digest per
subcommand.  The digests were recorded before the payload parsers became a
table, so a change here means some malformed payload is now answered
differently.  The ``move`` digest was re-pinned for two reasons: ``$.n`` got
an upper bound, so its 11 reports read "must be an integer in 2..8" instead
of ">= 2", and ``PolyAuto.compose`` fuses the two middle shears of a move, so
the 48 answered mutations print five steps instead of six, with the same
points, Jacobian and volume check.  It was re-pinned again when the
separating linear step became conditional: the same 48 mutations print
three steps, or four for ``$.src[1][0]=0``, whose sources share a first
coordinate, again with the same points, Jacobian and volume check.  The
``verify`` digest was re-pinned when the ``exterior`` check was deleted: the
42 mutations of its base payload are gone, and the 65 reports of a bad
``$.check`` no longer list ``exterior`` among the checks it must be one of;
every other report reads as before.
The ``multiphase`` and ``volterra`` digests were re-pinned when the model
chart (dim n + N + nN + 1) got the payload bound ``jsonio.DIM_MAX``: the
three mutations that name a dim-24 model, ``multiphase`` ``$.N=7`` and
``$.n=7`` and ``volterra`` ``$.N=7``, now report that bound at ``$``.

JSON booleans are kept out of the digests: a boolean is not an integer, so
outside the two boolean fields it must get the same ``SchemaError`` that the
non-integer ``1.5`` gets at the same place.
"""
import hashlib
import json

import pytest

from plectic import cli
from test_cli_stdout import CASES, W3, W4, _form, _vec

BAD_VALUES = (None, "x", 1.5, [], {}, -1, 0, 2, 7, "1/0", [1], [[1]], {"a": 1})
BOOLEAN_FIELDS = ("star_shaped", "surrogate")  # where true/false are valid

TWO_FORMS = [{"degree": 2, "terms": [{"idx": [1, 2], "coeff": "x3"}]},
             {"degree": 2, "terms": [{"idx": [3, 4], "coeff": "x1*x2"}]},
             {"degree": 2, "terms": [{"idx": [1, 4], "coeff": "x2"}]}]
EXTRA = [
    ("verify", {"check": "ring-laws", "dim": 2, "samples": 2}),
    ("verify", {"check": "jacobiator", "omega": W4, "args": TWO_FORMS}),
    ("verify", {"check": "involutive",
                "frame": [_vec(3, [((1,), "1")]), _vec(3, [((2,), "x1")])]}),
    ("verify", {"check": "standard-subspace", "omega": W4,
                "frame": [{"degree": 1, "kind": "multivector",
                           "terms": [{"idx": [1], "coeff": "1"}]}]}),
    ("comoment", {"action": {"algebra": {"dim": 1, "c": [[[0]]]},
                             "generators": [_vec(3, [((1,), "1")])]},
                  "omega": W3, "mode": "from-potential", "potential_sign": -1,
                  "potential": _form(3, 1, [((2,), "x3")])}),
]


def _payloads():
    seen, out = set(), []
    for _flags, cmd, payload, *_rest in CASES:
        key = (cmd, json.dumps(payload, sort_keys=True))
        if key not in seen:
            seen.add(key)
            out.append((cmd, payload))
    return out + EXTRA


_DELETE = object()


def _replace(obj, path, value):
    """A copy of ``obj`` with the node at ``path`` set to ``value``, or
    deleted when ``value`` is ``_DELETE``."""
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(obj, dict):
        out = dict(obj)
        if not rest and value is _DELETE:
            del out[head]
        else:
            out[head] = _replace(obj[head], rest, value)
        return out
    out = list(obj)
    out[head] = _replace(obj[head], rest, value)
    return out


def _paths(obj, path=()):
    """The path of every value below ``obj``, depth first in key order."""
    items = (sorted(obj.items()) if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for k, v in items:
        yield path + (k,)
        yield from _paths(v, path + (k,))


def _label(path):
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _mutations(payload):
    for path in _paths(payload):
        if isinstance(path[-1], str):
            yield f"del {_label(path)}", _replace(payload, path, _DELETE)
        for bad in BAD_VALUES:
            yield f"{_label(path)}={json.dumps(bad)}", _replace(payload, path, bad)


def _report(cmd, payload):
    try:
        req = cli.parse_request(json.dumps(payload).encode(), command=cmd)
    except Exception as exc:
        rep, code = cli._error_report(exc), cli.EXIT_ERROR
    else:
        rep, code = cli.run(req)
    return json.dumps([rep, code], sort_keys=True)


# sha256 over "label report" lines, one per mutation, in generation order
DIGESTS = {
    "bracket": "41b5fb4a75c555cb140e32728af29a31690f7840902cf0b40dd11864a548d42f",
    "classify": "69735f9f44f657152b9a334306e6c2cf4ec8bde498a3f1e6cbd977ad925b5bae",
    "comoment": "718f9fb5047283a2ffbf9523ce62597c70e82a53eed5d565f690e927cbffc87f",
    "conserved": "faea48e42175da152f60df89f01cf44713c1600bcba9d842b60c23af2f8b8d20",
    "curve-check": "c58982809febf9d629a9f3b143dc9dd8b2a2750d9eaa48b3298086076a4ee4b9",
    "flat": "acf9eb02f0d74fea11dc77af44ea88ba4f2331821a59bf48aed8b728062dcf5c",
    "hamvf": "5f45766cd75c5a5fb5a8df98cd0a0b6fd0eec545e0fd60d37cec29a678cdff37",
    "hdw-residual": "4a18f6bef3f2ce9526681c0f1681804b9fa76b258d96c3f0a7b207d3b2ee7f4c",
    "lie-validate": "f655b3fe6c5545ded29213451423302fdd0de00b0736bcaf0629fd7ce66ae062",
    "move": "585c34655466061ce8c06b5ce43335951a4eb8282c4f2e205ba5fd3c45e25a97",
    "multiphase": "26e01c832008ff6cac6cc114ad8a70d38ca9cb096c59896b03238c996ab8874a",
    "obstruction": "0e256a5146871edcac62ab261d28248f6b71eca19897140fe574a42d486b5b0a",
    "verify": "77e9aff2ffc847d65d9a8c7b8001e673d3449cd0c71fa08d81df4e548921089a",
    "volterra": "4428d0009ec176226e7beae76d5005c20f4b1e08d7cfe7d1ca90aa2add1dd5e1",
}


@pytest.mark.parametrize("cmd", sorted(cli.COMMANDS))
def test_malformed_payload_reports_are_pinned(cmd):
    h = hashlib.sha256()
    for c, payload in _payloads():
        if c == cmd:
            for label, mutated in _mutations(payload):
                h.update(f"{label} {_report(cmd, mutated)}\n".encode())
    assert h.hexdigest() == DIGESTS[cmd]


@pytest.mark.parametrize("cmd", sorted(cli.COMMANDS))
def test_a_boolean_is_not_an_integer(cmd):
    for c, payload in _payloads():
        if c != cmd:
            continue
        for path in _paths(payload):
            if path[-1] in BOOLEAN_FIELDS:
                continue
            as_float = _report(cmd, _replace(payload, path, 1.5))
            for b in (True, False):
                rep = _report(cmd, _replace(payload, path, b))
                assert '"kind": "SchemaError"' in rep, (_label(path), b, rep)
                assert rep == as_float, (_label(path), b)
