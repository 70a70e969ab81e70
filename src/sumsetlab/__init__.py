"""Exact arithmetic over Z/pZ: sumsets, witnesses, and exhaustive verification."""

from .errors import (
    CeilingExceeded,
    CompositeModulus,
    DegreeTooHigh,
    EmptySet,
    HypothesisViolation,
    IndexOutOfRange,
    InvalidArgument,
    KTooLarge,
    ModulusMismatch,
    ModulusTooSmall,
    NotSplitting,
    NotVanishing,
    ShardLost,
    SumsetLabError,
    ZeroInverse,
    ZeroPolynomial,
)
from .field import Prime, binomial_mod, inverse_mod, is_prime
from .sets import (
    ApWitness,
    CanonicalPair,
    FpSet,
    PairClassification,
    canonical_pair,
    classify_pair,
    is_arithmetic_progression,
    restricted_sumset,
    sumset,
)
from .poly import (
    BiPoly,
    SymmetricProfile,
    UniPoly,
    build_locus_poly,
    cij,
    cij_exact,
    elementary_symmetric,
    homogeneous_components,
    roots_over_fp,
    sigma_expansion,
    vanishing_polynomial,
)
from .nullstellensatz import (
    CnWitness,
    WitnessVerdict,
    cn_decompose,
    first_nonvanishing_point,
    verify_witness,
)
from .audit import (
    AuditTrace,
    CheckRecord,
    CoefficientGrid,
    StepSummary,
    audit_sigma_chain,
    audit_top_layer,
    even_denominator_closed_form,
    extract_grids,
    odd_pivot_closed_form,
    reconstruct_from_sigmas,
)
from .sweep import (
    PairRecord,
    SweepReport,
    audit_all_extremal,
    enumerate_k_subsets,
    make_pair_record,
    report_to_json,
    verify_bounds,
    verify_karolyi_inverse,
    verify_main_theorem,
)

__version__ = "0.1.0"
