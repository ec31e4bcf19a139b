"""Certified Bernstein-type derivative bounds for rational functions."""

from .blaschke import (
    BlaschkeProduct,
    blaschke_deriv_modulus_on_T1,
    blaschke_eval,
    star_transform_deriv_modulus,
)
from .bounds import (
    BoundContext,
    BoundVerdict,
    TheoremId,
    blaschke_offset_family,
    build_context,
    certify,
    check_hypothesis,
    hypothesis_zero_location,
    make_extremal,
    margin_curve,
    rhs_value,
    sharpness_gap,
)
from .circlescan import (
    CircleGrid,
    CircleScanResult,
    log_derivative_real_part,
    min_modulus_on_circle,
    sup_modulus_on_circle,
    winding_zero_count,
)
from .errors import (
    DegenerateBound,
    HypothesisMismatch,
    HypothesisViolated,
    NearPole,
    NearZeroOfR,
    NonConvergence,
    OffCircle,
    ParameterOutOfRange,
    ParseError,
    PoleOnCircle,
    RatboundError,
    Reducible,
    SpecInvalid,
    ZeroOnContour,
)
from .harness import (
    CampaignReport,
    GeneratorSpec,
    generate,
    instance_from_dict,
    instance_to_dict,
    run_campaign,
)
from .ratfun import (
    PoleSet,
    Polynomial,
    RationalFunction,
    ZeroLocation,
    classify_zeros,
    poly_eval,
    poly_roots,
    rat_derivative_eval,
    rat_eval,
)
from .rng import CounterRng

__version__ = "0.1.0"
