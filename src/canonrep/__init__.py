"""Exact representations of finite adapted processes on the unit cube,
decoupled tangent copies, measure-preserving transports, sign-transform
benchmarks, and a stopped-Brownian embedding."""

from .errors import (
    CanonrepError,
    DegenerateBatch,
    DimensionMismatch,
    FormatError,
    NoDiskExit,
    NonPositiveProb,
    NotAnAtom,
    NotMartingaleDifference,
    NotTangent,
    ProbSumNotOne,
    ProcessError,
    RaggedDepth,
    SizeGuard,
    StepTooCoarse,
    TooCloseToBoundary,
    UnreachablePath,
    UnreachablePrefix,
    XOutOfRange,
)
from .process import (
    Branch,
    CheckResult,
    FiniteProcess,
    Node,
    PairProcess,
    Value,
    are_tangent,
    conditional_law,
    is_mds,
    iter_prefix_laws,
    joint_law,
    make_value,
    pair_from_identical,
    satisfies_ci,
    swap_components,
    validate_process,
)
from .representation import (
    AugmentedRepresentation,
    CellRepresentation,
    Interval,
    augment,
    canonical_representation,
    conditional_cdf,
    coordinate_recovery,
    evaluate,
    evaluate_augmented,
    law_of_representation,
    quantile_function,
)
from .martingale import (
    DecoupledRepresentation,
    construct_ci_copy,
    pair_law,
    represent_mds,
    verify_zero_sections,
)
from .transport import (
    InterleavingMap,
    SectionTransport,
    TransportMap,
    build_transport,
    deinterleave,
    generalized_inverse,
    independent_coupling,
    interleave,
    verify_measure_preserving,
    verify_transport_consistency,
)
from .bench import (
    PairSampleBatch,
    SampleBatch,
    decoupling_ratio,
    exact_moment_ratio,
    interleave_paths,
    lp_norm,
    recover_sums,
    sample_paths,
    sign_transform,
)
from .harmonic import (
    Arc,
    ArcFunction,
    arc_function,
    harmonic_extension,
    harmonic_measure,
    sample_exit,
)
from .embedding import (
    BrownianConfig,
    EmbeddedPath,
    martingale_check,
    simulate_F,
    simulate_grid_batch,
    simulate_increments,
)
from .generate import (
    random_dyadic_mds,
    random_independent_process,
    random_process,
    random_tangent_pair,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
