"""Exact-arithmetic workbench for multisymplectic geometry on charts."""

__version__ = "0.1.0"

from . import catalog, errors  # noqa: F401
from .scalar import (  # noqa: F401
    GaussianRational,
    RationalExpr,
    ScalarExpr,
    parse_expression,
)
from .exterior import (  # noqa: F401
    Chart,
    DiffForm,
    MultiVec,
    SmoothMap,
    chart,
    ext_d,
    interior,
    lie_derivative,
    poincare_homotopy,
    pullback,
    pushforward_at,
    wedge,
)
from .classify import (  # noqa: F401
    classify6,
    extract_acs,
    flatness_report,
    hitchin_endomorphism,
    involutive,
    nijenhuis,
    nondegenerate,
    split_product,
    verify_standard_subspace,
)
from .hdw import (  # noqa: F401
    ham_curve_check,
    ham_vector_field,
    hamilton_volterra_residual,
    hdw_residual,
    multiphase_forms,
)
from .linfty import (  # noqa: F401
    jacobiator_identity_residual,
    l_k,
    linfty_relation_residual,
    make_observable,
)
from .liesym import (  # noqa: F401
    CEOperators,
    LieAction,
    LieAlgebraData,
    canonical_three_form,
    comoment_from_potential,
    comoment_verify,
    conserved_classify,
    killing_form,
    obstruction_cochain,
)
from .mover import (  # noqa: F401
    jacobian_determinant,
    move_points,
    realify_and_check,
)
