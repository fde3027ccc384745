"""Value types and reports: the ==/hash contract, immutability and reprs,
and a CLI start-up that loads neither ``dataclasses`` nor ``inspect``."""
import os
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import pytest

from plectic.classify import (
    EndField,
    InvolutivityReport,
    NijenhuisReport,
    NondegeneracyReport,
    SignReport,
    StandardSubspaceReport,
    TypeReport,
)
from plectic.exterior import Chart, DiffForm, MultiVec, SmoothMap, chart
from plectic.hdw import MultiphaseModel
from plectic.liesym import (
    ComomentData,
    ComomentReport,
    InvariantObservables,
    KillingReport,
    LieAction,
    LieAlgebraData,
    ObstructionReport,
    left_invariant_surrogate,
    so3,
)
from plectic.linfty import Observable
from plectic.mover import LinearStep, Poly, PolyAuto, RealifiedAuto, ShearStep, realify_and_check
from plectic.record import Record
from plectic.scalar import GaussianRational, RationalExpr, ScalarExpr, parse_expression

C3 = chart(3)


def _auto():
    return PolyAuto(2, (LinearStep(((1, 1), (0, 1))),
                        ShearStep("first_by_last", 2, (Poly((0, 0, 1)),))))


# each entry builds one value twice over, from separately made but equal fields
VALUES = {
    Chart: lambda: Chart(6, [2]),
    SmoothMap: lambda: SmoothMap.identity(chart(2, [1])),
    EndField: lambda: EndField.from_rows(C3, [[0, parse_expression("x1^2", 3), 0], [1, 0, 0],
                                              [0, 0, Q(-1, 2)]]),
    LieAlgebraData: so3,
    LieAction: lambda: left_invariant_surrogate(so3()),
    ComomentData: lambda: ComomentData(so3(), 2, (
        {(i,): DiffForm(C3, 1, {(i,): f"x{i}^2"}) for i in (1, 2, 3)},
        {(1, 2): DiffForm(C3, 0, {(): "x3"})})),
    Observable: lambda: Observable(DiffForm(C3, 1, {(2,): "x1 + 1"})),
    Poly: lambda: Poly((1, "1/2", 0)),
    LinearStep: lambda: LinearStep(((2, 1), (1, 1))),
    ShearStep: lambda: ShearStep("rest_by_first", 3, (Poly((1,)), Poly((0, 1)))),
    PolyAuto: _auto,
    RealifiedAuto: lambda: realify_and_check(_auto())[0],
}

# the immutable values that are not records; _raw builds the hot ones
OTHER_VALUES = {
    ScalarExpr: lambda: parse_expression("x1^2 + 3", 3).num,
    RationalExpr: lambda: parse_expression("x1/(x2 + 1)", 3),
    GaussianRational: lambda: GaussianRational(1, 2),
    DiffForm: lambda: DiffForm(C3, 1, {(2,): "x1 + 1"}),
    MultiVec: lambda: MultiVec(C3, 1, {(1,): "x3"}),
}

REPORTS = [SignReport, NondegeneracyReport, TypeReport, NijenhuisReport,
           InvolutivityReport, StandardSubspaceReport, KillingReport, ObstructionReport,
           ComomentReport, MultiphaseModel, InvariantObservables]


def test_chart_positive_variables_compare_and_hash_as_a_set():
    assert Chart(6, (2,)) == chart(6, [2])
    assert hash(Chart(6, [2])) == hash(chart(6, (2,)))
    assert Chart(6, [2, 2]) == Chart(6, {2}) != Chart(6)


def test_every_value_type_is_listed():
    package = {c for c in Record.__subclasses__() if c.__module__.startswith("plectic.")}
    assert set(VALUES) == package


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_equal_fields_give_equal_values_and_hashes(cls):
    a, b = VALUES[cls](), VALUES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert {a, b} == {a}


@pytest.mark.parametrize("cls", [*VALUES, *OTHER_VALUES], ids=lambda c: c.__name__)
def test_fields_are_read_only(cls):
    value = {**VALUES, **OTHER_VALUES}[cls]()
    slots = [name for k in cls.__mro__ for name in getattr(k, "__slots__", ())]
    assert slots
    for name in slots:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_a_value_never_equals_a_tuple_or_another_type_with_its_fields(cls):
    value = VALUES[cls]()
    fields = tuple(getattr(value, name) for name in cls.__slots__)
    twin_type = type("Twin", (Record,), {"__slots__": cls.__slots__})
    twin = object.__new__(twin_type)
    for name, v in zip(cls.__slots__, fields):
        object.__setattr__(twin, name, v)
    assert twin == twin  # the twin is a working record
    for other in (fields, twin):
        assert value != other and other != value
        assert not value == other and not other == value


@pytest.mark.parametrize("cls", REPORTS, ids=lambda c: c.__name__)
def test_report_repr_names_every_field(cls):
    text = repr(cls(*range(len(cls._fields))))
    assert text.startswith(cls.__name__ + "(")
    for i, name in enumerate(cls._fields):
        assert f"{name}={i}" in text


def test_value_repr_names_every_field():
    text = repr(Chart(3, [1]))
    assert text == "Chart(dim=3, positive=frozenset({1}), star_shaped=True)"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    """Both cost start-up time on every CLI call: building a dataclass runs
    exec and inspect.signature, and dataclasses imports inspect, ast and dis."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; before = set(sys.modules); import plectic.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
