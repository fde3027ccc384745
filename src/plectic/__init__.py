"""Exact-arithmetic workbench for multisymplectic geometry on charts.

``import plectic`` binds every layer below and puts it in ``sys.modules``,
but a layer's source is compiled and run only when one of its attributes is
first read (``importlib.util.LazyLoader``), so a CLI call loads only the
layers its command uses.  The names re-exported here resolve the same way.
"""
import importlib.util
import sys

__version__ = "0.1.0"

from . import errors  # noqa: F401

# layer -> the names re-exported from it
_LAYERS = {
    "scalar": ("GaussianRational", "RationalExpr", "ScalarExpr", "parse_expression"),
    "record": (),
    "exterior": ("Chart", "DiffForm", "MultiVec", "SmoothMap", "chart", "ext_d", "interior",
                 "lie_derivative", "poincare_homotopy", "pullback", "pushforward_at", "wedge"),
    "linalg": (),
    "catalog": (),
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
    "jsonio": (),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}
__all__ = ["errors", *_LAYERS, *_HOME]


def _register(layer):
    spec = importlib.util.find_spec(f"{__name__}.{layer}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # only arms the load on first attribute read
    return module


globals().update({layer: _register(layer) for layer in _LAYERS})


def __getattr__(name):
    """A re-exported name, read from its layer (which loads the layer) at each use."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)
