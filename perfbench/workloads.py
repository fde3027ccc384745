"""The four benchmark workloads and the independent checks on their answers.

A workload builds its fixed objects once (forms, samplers) and then, for
each pass p, a fresh list of operations whose inputs are drawn from a random
generator seeded with the workload, the seed and p.  No pass repeats an
earlier pass's inputs: seeded values (matrices, Hamiltonians, points,
payloads) are drawn anew, and the forms that ``observables`` and
``structures`` work on are scaled by ``generators.pass_scale(p)``, so a memo
or cache keyed on an operation's inputs cannot carry an answer from one pass
into the next.  Every pass has the same labels in the same order, so an
operation's position names the same kind and size of work in every pass.

Every operation returns None when plectic's answer matches what the
generator knows independently (a normal form's type, a translation field, a
fixed verdict table, a move's target points, a CLI exit code), and a short
message otherwise, so a faster wrong answer counts as a failure.

Operations call plectic through module attributes (``classify.classify6``,
not a name bound at import time), so the traced run's wrappers see them.
"""
from __future__ import annotations

import json
import os
import random
import resource
import shutil
import sys
import tempfile
from fractions import Fraction as Q
from functools import partial
from math import prod

import generators as gen
import pace
from plectic import catalog, classify, exterior, hdw, liesym, linfty, mover
from plectic.errors import NotHamiltonian
from plectic.scalar import format_gaussian_point, parse_expression

PRODUCT, COMPLEX, TANGENT = "ProductType", "ComplexType", "TangentType"
FLAT, NONFLAT, UNDETERMINED = "Flat", "NonFlat", "Undetermined"
ORIGIN6 = [0] * 6
HERE = os.path.dirname(os.path.abspath(__file__))


class Workload:
    """Operations run in this process; peak memory is this process's.

    ``make_ops(rng, p)`` returns pass p's operations: a list of (label,
    callable returning None or a failure message).
    """

    def __init__(self, name, seed, make_ops):
        self.name, self.seed = name, seed
        self.make_ops = make_ops
        self.labels = None

    def ops_for(self, p):
        """Pass p's operations, generated from the seed (call before timing)."""
        ops = self.make_ops(random.Random(f"{self.name}:{self.seed}:{p}"), p)
        labels = [label for label, _op in ops]
        if self.labels is None:
            self.labels = labels
        elif labels != self.labels:
            raise ValueError(f"pass {p} of {self.name} has other operations than pass 0")
        return ops

    def meter(self):
        """The pace meter that scales this workload's operation times."""
        return pace.Meter()

    def start_trace(self, tracer):
        tracer.install()

    def stop_trace(self, tracer):
        tracer.uninstall()

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self):
        pass


# ---------------------------------------------------------------------------
# conjugates: Fraction-only pointwise classification
# ---------------------------------------------------------------------------

CONJUGATES_PER_PASS = 150


def _conjugate_op(w, matrix, expected):
    moved = exterior.constant_linear_pullback(w, matrix)
    got = classify.classify6(moved, ORIGIN6).linear_type
    return None if got == expected else f"classified {got}, expected {expected}"


def build_conjugates(seed):
    # The normal forms are constants; every op's matrix is drawn afresh.
    normal = [(catalog.product6(), PRODUCT), (catalog.complex6(), COMPLEX),
              (catalog.tangent6(), TANGENT)]

    def make_ops(rng, _p):
        ops = []
        for t in range(CONJUGATES_PER_PASS):
            w, expected = normal[t % 3]
            matrix = gen.invertible_int_matrix(rng)
            ops.append((f"conjugate-{expected}", partial(_conjugate_op, w, matrix, expected)))
        return ops
    return Workload("conjugates", seed, make_ops)


# ---------------------------------------------------------------------------
# observables: Hamiltonian observables, solve-many against one fixed form
# ---------------------------------------------------------------------------

OBSERVABLES_PER_KIND = 20


def _residual_op(w, k, alphas):
    args = [linfty.make_observable(w, a) for a in alphas]
    res = linfty.linfty_relation_residual(w, k, args)
    return None if res.is_zero else f"l_{k} relation residual is {res}"


def _jacobiator_op(w, alphas):
    a, b, c = (linfty.make_observable(w, x) for x in alphas)
    res = linfty.jacobiator_identity_residual(w, a, b, c)
    return None if res.is_zero else f"Jacobiator residual is {res}"


def _conserved_op(w, H, alpha, beta):
    bracket = linfty.l2(w, linfty.make_observable(w, alpha), linfty.make_observable(w, beta))
    got = liesym.conserved_classify(w, H, bracket)
    return None if got == "Strict" else f"l2 of conserved pair classified {got}"


def build_observables(seed):
    c3 = exterior.chart(3)
    vol3 = exterior.DiffForm(c3, 3, {(1, 2, 3): 1})
    product6 = catalog.product6()
    linear3, linear6 = gen.linear_symmetry_fields(vol3), gen.linear_symmetry_fields(product6)
    x3dx1 = exterior.DiffForm(c3, 1, {(1,): parse_expression("x3", 3)})

    def make_ops(rng, p):
        # Within a pass every solve against w3 (or w6) shares its matrix:
        # that is the solve-many path.  Each pass has its own w3 and w6.
        c = gen.pass_scale(p)
        w3, w6 = vol3.scale(c), product6.scale(c)
        s3 = gen.HamiltonianSampler(w3, linear3)
        s6 = gen.HamiltonianSampler(w6, linear6)
        # X_H = -e2/c for H = x3 dx1; l2 of locally conserved pairs is strictly conserved
        H = linfty.make_observable(w3, x3dx1)
        ops = []
        # Equal shares put op_p50_ms inside the R^3 relations and op_p90_ms in
        # the middle of the slowest kind (R^6 k=3), away from cluster edges.
        for _ in range(OBSERVABLES_PER_KIND):
            ops.append(("r3-l2-relation",
                        partial(_residual_op, w3, 2, [s3.sample(rng) for _ in range(3)])))
            ops.append(("r3-jacobiator",
                        partial(_jacobiator_op, w3, [s3.sample(rng) for _ in range(3)])))
            ops.append(("r6-l2-relation",
                        partial(_residual_op, w6, 2, [s6.sample(rng) for _ in range(3)])))
            ops.append(("r6-l3-relation",
                        partial(_residual_op, w6, 3, [s6.sample(rng) for _ in range(4)])))
            a, b = gen.locally_conserved_one_form(rng), gen.locally_conserved_one_form(rng)
            ops.append(("r3-conserved", partial(_conserved_op, w3, H, a, b)))
        return ops
    return Workload("observables", seed, make_ops)


# ---------------------------------------------------------------------------
# structures: one-shot constructions spanning three orders of magnitude
# ---------------------------------------------------------------------------

# w^f = dx135 - dx146 - dx236 + f(x2) dx245 on x2 > 0 has J^2 = 4f I, so the
# sign of f gives the type, and it is flat exactly when f is constant.  For
# f = x2^2+1 the exact split needs sqrt(x2^2+1), outside the ring, so the
# honest answers are NonFlat or Undetermined; Flat would be wrong.
FAMILY = [
    ("1", PRODUCT, {FLAT}),
    ("x2", PRODUCT, {NONFLAT}),
    ("x2^(1/2)", PRODUCT, {NONFLAT}),
    ("1/x2", PRODUCT, {NONFLAT}),
    ("x2^2", PRODUCT, {NONFLAT}),
    ("x2^2+1", PRODUCT, {NONFLAT, UNDETERMINED}),
    ("-1", COMPLEX, {FLAT}),
    ("-x2", COMPLEX, {NONFLAT}),
]
NORMAL_FORMS = [("product6", PRODUCT), ("complex6", COMPLEX), ("tangent6", TANGENT)]
# non-degenerate constant forms of other shapes (G2, the S^6 pole, symplectic powers)
MORE_NONDEGENERATE = [catalog.g2_form, catalog.s6_pole_form] + [
    partial(catalog.symplectic_power, 4, j) for j in range(1, 5)]
# e1 and e4 preserve every w^f (f depends on x2 only); i_{e4} w^f carries f.
# Fixed directions keep each op's cost independent of the seed.
FAMILY_TRANSLATIONS = (1, 4)
# A sweep of further w^f = c x2^e with seeded c: one solve per form, so that
# no two solves share a matrix (structures is the workload on which
# factor-once solving must not help).  The exponent sets an op's cost.
SWEEP_EXPONENTS = ("1", "2", "3", "(1/2)", "(3/2)", "(-1)", "(-1/2)")
SWEEP_COEFFS = (-5, -4, -3, -2, 2, 3, 4, 5)  # never +-1, so never a FAMILY member
SWEEP_PER_EXPONENT = 4
SWEEP_NOT_HAMILTONIAN = 12  # the last forms of the sweep get single-term 1-forms
MOVES_PER_SIZE = 2


def _flatness_op(w, expected_type, expected_flat):
    rep = classify.flatness_report(w)
    if rep.linear_type != expected_type or rep.flat not in expected_flat:
        return f"flatness_report gave {rep.linear_type}/{rep.flat}"
    return None


def _nondegenerate_op(w):
    return None if classify.nondegenerate(w) else "reported degenerate"


def _hamvf_op(w, H, field):
    X = hdw.ham_vector_field(w, H)
    # quotients are not gcd-reduced (x2/x2 is a valid 1), so compare exactly
    # by cross-multiplication rather than asking for a constant
    got = {idx[0]: c for idx, c in X.coeffs.items()}
    if set(got) != set(field) or any(got[j] != field[j] for j in field):
        return f"field {X}, expected {field}"
    return None


def _not_hamiltonian_op(w, H):
    try:
        hdw.ham_vector_field(w, H)
    except NotHamiltonian:
        return None
    return "single-term dH accepted as Hamiltonian"


def _standard_acs(d):
    """J e_(2k-1) = e_(2k), J e_(2k) = -e_(2k-1): the complex structure of Re(dz1^..^dzm)."""
    J = [[Q(0)] * d for _ in range(d)]
    for k in range(0, d, 2):
        J[k + 1][k] = Q(1)
        J[k][k + 1] = Q(-1)
    return J


def _acs_op(w, signs):
    d = len(signs)
    J = classify.extract_acs(w)
    rows = []
    for row in J.matrix:
        if not all(v.is_constant for v in row):
            return "non-constant almost-complex structure"
        rows.append([v.constant_value() for v in row])
    square = [[sum(rows[i][k] * rows[k][j] for k in range(d)) for j in range(d)]
              for i in range(d)]
    if any(square[i][j] != (-1 if i == j else 0) for i in range(d) for j in range(d)):
        return "J^2 != -I"
    # w = c S^* Re(dz1^..^dzm) is compatible with S J0 S and with -S J0 S (the
    # conjugate volume has the same real part).  The chart's orientation
    # picks det(S) S J0 S when m is odd; when m is even both orient the frame
    # (e1, J e1, ...) alike, so either sign is right.
    J0, det = _standard_acs(d), prod(signs)
    want = [[J0[i][j] * signs[i] * signs[j] * det for j in range(d)] for i in range(d)]
    if rows == want or (d // 2 % 2 == 0 and rows == [[-v for v in row] for row in want]):
        return None
    return "J is not the sign-conjugated standard structure"


def _move_op(n, src, dst):
    auto = mover.move_points(src, dst, n)
    if any(tuple(auto.apply(s)) != tuple(d) for s, d in zip(src, dst)):
        return "a source point missed its target"
    det = mover.jacobian_determinant(auto)
    if not (det.is_constant and det.constant_value() == 1):
        return f"Jacobian determinant {det}"
    _realified, preserved = mover.realify_and_check(auto)
    return None if preserved else "realified map does not preserve the volume"


def build_structures(seed):
    acs_forms = [catalog.complex_volume_re(m) for m in (3, 4)]
    # (label, form, coordinates its coefficients depend on, type, flatness)
    table = [(f"f={f}", catalog.omega_f(f), (2,), typ, flat) for f, typ, flat in FAMILY]
    table += [(name, getattr(catalog, name)(), (), typ, {FLAT}) for name, typ in NORMAL_FORMS]
    others = [make() for make in MORE_NONDEGENERATE]

    def make_ops(rng, p):
        # Every form is disguised afresh (gen.disguise): a sign flip of the
        # coordinates its coefficients do not depend on, times pass_scale(p).
        # Answers are invariant, or (for J) transform in a known way.
        c = gen.pass_scale(p)
        ops = []
        for w in acs_forms:
            moved, signs = gen.disguise(w, rng, c)
            ops.append((f"extract-acs-dim{w.chart.dim}", partial(_acs_op, moved, signs)))
        forms = []
        for label, w, fixed, typ, flat in table:
            moved, _signs = gen.disguise(w, rng, c, fixed)
            forms.append(moved)
            ops.append((f"flatness-{label}", partial(_flatness_op, moved, typ, flat)))
        sweep = [gen.disguise(catalog.omega_f(f"{k}*x2^{e}"), rng, c, (2,))[0]
                 for e in SWEEP_EXPONENTS for k in rng.sample(SWEEP_COEFFS, SWEEP_PER_EXPONENT)]
        for w in forms + sweep + [gen.disguise(w, rng, c)[0] for w in others]:
            ops.append(("nondegenerate", partial(_nondegenerate_op, w)))
        # Each i_{e_j} w^f has exactly two terms and no basis 2-form occurs in
        # two of them, so a single-term dH is never i_X w^f: those answer
        # NotHamiltonian.  Sign flips and scaling keep this.
        split = len(sweep) - SWEEP_NOT_HAMILTONIAN
        for w in forms[:len(FAMILY)] + sweep[:split]:
            H, field = gen.translation_hamiltonian(rng, w, FAMILY_TRANSLATIONS)
            ops.append(("hamvf-translation", partial(_hamvf_op, w, H, field)))
        for w in sweep[split:]:
            ops.append(("hamvf-not-hamiltonian",
                        partial(_not_hamiltonian_op, w, gen.single_term_one_form(rng, w.chart))))
        for n in (2, 3):  # the point count sets a move's cost; the seed sets the points
            for k in range(1, 6):
                for _ in range(MOVES_PER_SIZE):
                    src, dst = gen.rand_points(rng, k, n), gen.rand_points(rng, k, n)
                    ops.append((f"move-n{n}", partial(_move_op, n, src, dst)))
        return ops
    return Workload("structures", seed, make_ops)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m plectic.cli` process per operation
# ---------------------------------------------------------------------------

def spawn(argv, env, workdir):
    """Run argv to completion; returns (exit code, stdout, stderr, peak RSS in KiB)."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        pid = os.posix_spawn(argv[0], argv, env, file_actions=[
            (os.POSIX_SPAWN_DUP2, out.fileno(), 1),
            (os.POSIX_SPAWN_DUP2, err.fileno(), 2),
        ])
        _pid, status, usage = os.wait4(pid, 0)
        out.seek(0)
        err.seek(0)
        return (os.waitstatus_to_exitcode(status), out.read().decode(),
                err.read().decode(), usage.ru_maxrss)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _form(dim, degree, terms, positive=()):
    return {"chart": {"dim": dim, "positive": list(positive)}, "degree": degree,
            "terms": [{"idx": list(i), "coeff": c} for i, c in terms]}


def _vec(dim, terms):
    out = _form(dim, 1, terms)
    out["kind"] = "multivector"
    return out


W3 = _form(3, 3, [((1, 2, 3), "1")])
PRODUCT6 = _form(6, 3, [((1, 2, 3), "1"), ((4, 5, 6), "1")])
SO3 = [[[0, 0, 0], [0, 0, 1], [0, -1, 0]],
       [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
       [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]]
ABELIAN2_ON_R3 = {
    "algebra": {"dim": 2, "c": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]},
    "generators": [_vec(3, [((2,), "1")]), _vec(3, [((3,), "1")])],
}


def _fields(**want):
    def check(rep):
        bad = {k: rep.get(k) for k, v in want.items() if rep.get(k) != v}
        return f"report fields {bad}, expected {want}" if bad else None
    return check


def _move_check(rep):
    if rep.get("jacobian") != "1" or rep.get("realified_preserves_volume") is not True:
        return "move report lacks det 1 or volume preservation"
    return None if all(r.get("match") for r in rep.get("eval", [])) else "a point missed its target"


def _hamvf_check(coeff):
    def check(rep):
        terms = rep.get("field", {}).get("terms")
        if rep.get("verdict") != "Hamiltonian" or terms is None:
            return f"verdict {rep.get('verdict')}"
        got = [(t["idx"], Q(t["coeff"])) for t in terms]
        return None if got == [([2], coeff)] else f"field terms {terms}"
    return check


CLI_SEEDED_PER_KIND = 21


def _seeded_cli_payloads(rng):
    """Seeded classify/move/hamvf/verify calls whose answers the generator knows."""
    from plectic.jsonio import form_to_json

    normal = [(catalog.product6(), PRODUCT), (catalog.complex6(), COMPLEX),
              (catalog.tangent6(), TANGENT)]
    out = []
    for t in range(CLI_SEEDED_PER_KIND):
        w, expected_type = normal[t % 3]
        moved = exterior.constant_linear_pullback(w, gen.invertible_int_matrix(rng))
        out.append(("classify", {"omega": form_to_json(moved), "point": ORIGIN6}, [], 0,
                    _fields(type=expected_type)))
        n, k = 2 + t % 2, 1 + t % 3
        src, dst = ([[format_gaussian_point(v) for v in p] for p in gen.rand_points(rng, k, n)]
                    for _ in range(2))
        out.append(("move", {"n": n, "src": src, "dst": dst}, [], 0, _move_check))
        c = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
        out.append(("hamvf", {"omega": W3, "hamiltonian": {"degree": 1, "terms": [
            {"idx": [1], "coeff": f"{c}*x3"}]}}, [], 0, _hamvf_check(Q(-c))))
        out.append(("verify", {"check": "ring-laws", "dim": 3, "samples": 10},
                    ["--seed", str(rng.randint(1, 10**6))], 0, _fields(ok=True)))
    return out


def cli_payloads(rng):
    """(subcommand, payload, extra flags, expected exit code, report check) per call."""
    half_x2 = _form(6, 3, [((1, 3, 5), "1"), ((1, 4, 6), "-1"), ((2, 3, 6), "-1"),
                           ((2, 4, 5), "x2")], positive=[2])
    ham = {"degree": 1, "terms": [{"idx": [1], "coeff": "x3"}]}
    args3 = [{"degree": 1, "terms": [{"idx": [i], "coeff": f"x{j}"}]}
             for i, j in ((1, 3), (2, 1), (3, 2))]
    return _seeded_cli_payloads(rng) + [
        # the README's two payloads
        ("classify", {"omega": PRODUCT6, "point": ORIGIN6}, [], 0,
         _fields(type=PRODUCT, trace_sign="+")),
        ("move", {"n": 3, "src": [["0", "0", "0"], ["1", "i", "2"]],
                  "dst": [["1", "1", "1"], ["1/2-3/4 i", "0", "0"]]}, [], 0, _move_check),
        # one payload per remaining subcommand
        ("flat", {"omega": half_x2}, [], 0, _fields(type=PRODUCT, flat=NONFLAT)),
        ("hamvf", {"omega": PRODUCT6, "hamiltonian": {"degree": 1, "terms": [
            {"idx": [4], "coeff": "x1"}]}}, [], 0, _fields(verdict="NotHamiltonian")),
        ("hdw-residual", {"omega": W3, "field": _vec(3, [((2,), "-1")]), "hamiltonian": ham},
         [], 0, _fields(zero=True)),
        ("multiphase", {"n": 2, "N": 1}, [], 0, _fields(closed=True, nondegenerate=True)),
        ("volterra", {"n": 2, "N": 1, "hamiltonian": "(x4^2 + x5^2)/2",
                      "section": {"q": ["x1"], "p": [["-1", "0"]]}}, [], 0, _fields(zero=True)),
        ("curve-check", {
            "map": {"source": {"dim": 1, "positive": []}, "target": {"dim": 2, "positive": []},
                    "components": ["-x1", "5"]},
            "gamma": _vec(1, [((1,), "1")]), "field": _vec(2, [((1,), "-1")]),
            "points": [["0"], ["1/2"], ["-3"]]}, [], 0, _fields(all=True)),
        ("bracket", {"omega": W3, "args": args3[:2]}, [], 0,
         _fields(k=2, result=_form(3, 1, [((1,), "1")]))),
        ("lie-validate", {"algebra": {"dim": 3, "c": SO3}}, [], 0,
         _fields(valid=True, semisimple=True)),
        ("comoment", {"action": ABELIAN2_ON_R3, "omega": W3, "mode": "from-potential",
                      "potential": {"degree": 2, "terms": [{"idx": [2, 3], "coeff": "x1"}]}},
         [], 0, _fields(verified=True)),
        ("obstruction", {"action": ABELIAN2_ON_R3, "omega": W3, "i": 2}, [], 0,
         _fields(vanishes=True)),
        ("conserved", {"omega": W3, "hamiltonian": ham,
                       "alpha": {"degree": 0, "terms": [{"idx": [], "coeff": "x2"}]}},
         [], 0, _fields(**{"class": "LocallyConserved"})),
        ("verify", {"check": "jacobiator", "omega": W3, "args": args3}, [], 0, _fields(ok=True)),
        # a violated property (exit 2) and a malformed payload (exit 1)
        ("hdw-residual", {"omega": W3, "field": _vec(3, [((2,), "1")]), "hamiltonian": ham},
         [], 2, _fields(zero=False)),
        ("classify", {"omega": _form(6, 3, [((1, 2), "1")]), "point": ORIGIN6}, [], 1,
         lambda rep: None if rep.get("error", {}).get("kind") == "SchemaError"
         else f"error {rep.get('error')}"),
    ]


class CliWorkload(Workload):
    """Sequential CLI calls; peak memory is the largest CLI child's.

    Each pass writes its payload files afresh.  The seeded payloads change
    from pass to pass; the fixed ones (the README's, one per subcommand, the
    two failures) do not, which cannot help a later pass because every call
    is a new interpreter that keeps nothing.  With a tracer set, each call
    runs through ``cli_shim.py`` instead, which installs the same wrappers
    inside the child and hands back its totals.
    """

    SHIM = os.path.join(HERE, "cli_shim.py")

    def __init__(self, seed, root, workdir):
        super().__init__("cli", seed, self._make_ops)
        self.workdir = tempfile.mkdtemp(prefix="cli-", dir=workdir)
        self.env = child_env(root)
        self.tracer = None
        self.peak_kb = 0

    def _make_ops(self, rng, p):
        passdir = os.path.join(self.workdir, f"pass-{p}")
        shutil.rmtree(os.path.join(self.workdir, f"pass-{p - 1}"), ignore_errors=True)
        os.makedirs(passdir)
        ops = []
        for i, (cmd, payload, flags, code, check) in enumerate(cli_payloads(rng)):
            path = os.path.join(passdir, f"{i:02d}-{cmd}.json")
            with open(path, "w") as fh:
                json.dump(payload, fh)
            ops.append((f"cli-{cmd}", partial(self._call, [*flags, cmd, path], code, check)))
        return ops

    def _call(self, argv, code, check):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "plectic.cli", *argv]
        else:
            stats = os.path.join(self.workdir, "stats.json")
            cmd = [sys.executable, self.SHIM, stats, *argv]
        got, out, err, peak_kb = spawn(cmd, self.env, self.workdir)
        if self.tracer is None:
            self.peak_kb = max(self.peak_kb, peak_kb)
        else:
            with open(stats) as fh:
                self.tracer.absorb(json.load(fh))
            os.remove(stats)
        if "Traceback" in err:
            return f"traceback on stderr: {err.strip().splitlines()[-1]}"
        if got != code:
            return f"exit code {got}, expected {code}"
        try:
            report = json.loads(out)
        except ValueError:
            return "stdout is not JSON"
        return check(report)

    def meter(self):
        return pace.ProcessMeter()

    def start_trace(self, tracer):
        self.tracer = tracer

    def stop_trace(self, tracer):
        self.tracer = None

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


BUILDERS = {
    "conjugates": build_conjugates,
    "observables": build_observables,
    "structures": build_structures,
}


def build(name, seed, root, workdir):
    """Build the workload's fixed objects; ``ops_for(p)`` then draws pass p's inputs."""
    if name == "cli":
        return CliWorkload(seed, root, workdir)
    return BUILDERS[name](seed)
