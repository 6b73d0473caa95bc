"""Exact computation of the K_-1 obstruction to Kawamata type
semiorthogonal decompositions for curves, surfaces, and threefolds with
isolated compound-A_n singularities, with decision verdicts backed by
machine-checkable certificates or obstructions."""

from .blowup import (
    BlowupPipeline,
    BlowupStep,
    blowup_curve_verdict,
    blowup_k_theory,
)
from .curves import (
    CurveSpec,
    DualGraph,
    GeneralCurvePiece,
    betti1,
    curve_k_minus_one,
    is_forest_of_lines,
    is_tree_of_lines,
)
from .errors import (
    ExtensionUnsupported,
    InputError,
    KMinusOneError,
    NotIsolated,
    PolySyntaxError,
    SpecValidationError,
)
from .exact import (
    BiPoly,
    FinAbGroup,
    IntMatrix,
    Rational,
    UniPoly,
    cokernel,
    smith_normal_form,
)
from .germs import (
    BranchReport,
    NewtonEdge,
    branch_count,
    branch_count_factored,
    is_isolated,
    newton_polygon,
)
from .localsing import (
    LocalSingularity,
    ade_germ,
    ade_labels,
    ade_lookup,
    classify_cAn,
    from_branch_number,
    ordinary_double_point,
)
from .parsing import parse_polynomial, render_polynomial
from .quiver import (
    AlgebraBasis,
    Arrow,
    QuiverWithRelations,
    algebra_basis,
    burban_quiver,
    doubled_quiver,
)
from .varieties import (
    EnoughWeil,
    GlobalReport,
    SurfaceResolutionSpec,
    VarietySpec,
    del_pezzo_spec,
    kawamata_p2p2_spec,
    nodal_quadric_spec,
    surface_k_minus_one,
    surface_rank,
    threefold_invariants,
)
from .verdicts import (
    Certificate,
    CertificateKind,
    Decision,
    Verdict,
    decide,
    smooth_verdict,
)

__version__ = "0.1.0"
