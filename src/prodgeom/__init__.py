"""Differential-geometric and substitution invariants of product-form functions.

Core surface: spec construction and parsing (`funcspec`), exact second-order
jets plus a finite-difference oracle (`jets`), Gauss-Kronecker curvature and
Hessian determinants (`geometry`), Hicks/Allen elasticities (`elasticity`),
symbolic family classification (`classify`) and the seeded verification
suite (`verify`). The ``prodgeom`` CLI wraps all of it for batch use.
"""

from .errors import (
    AllenUndefined,
    DomainError,
    HicksUndefined,
    NumericalError,
    ParseError,
    ProdgeomError,
    SpecError,
    ValidationError,
    ZeroGradientError,
)
from .funcspec import (
    Acms,
    ComponentFn,
    Composite,
    ExpFn,
    FunctionSpec,
    Homothetical,
    HomogeneityReport,
    Identity,
    Log,
    LogPowFn,
    OuterFn,
    PowFn,
    Power,
    Scale,
    evaluate,
    homogeneity_degree,
    make_acms,
    make_cobb_douglas,
    parse_spec,
    serialize_spec,
)
from .jets import Jet1, Jet2N, fd_jet, jet1d, jet_multivariate
from .geometry import (
    CurvatureBlock,
    CurvatureRecord,
    gauss_kronecker,
    gauss_kronecker_batch,
    hessian,
    hessian_det_closed,
    hessian_det_direct,
    is_developable,
)
from .elasticity import (
    CesVerdict,
    ElasticityReport,
    allen,
    bordered_hessian,
    ces_probe,
    elasticity_report,
    hicks,
)
from .classify import (
    ClassificationVerdict,
    Corollary42Report,
    check_corollary42,
    classify_allen_singular,
    classify_ces,
    classify_developable,
    make_thm31_family,
    make_thm41_family,
    make_thm51_family,
)
from .verify import CheckResult, run_checks

__version__ = "0.1.0"
