"""Exact representations of finite adapted processes on the unit cube,
decoupled tangent copies, measure-preserving transports, sign-transform
benchmarks, and a stopped-Brownian embedding."""

from types import ModuleType as _ModuleType

from .errors import (
    CanonrepError,
    DegenerateBatch,
    DimensionMismatch,
    FormatError,
    NoDiskExit,
    NonPositiveProb,
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
    CellRepresentation,
    Interval,
    canonical_representation,
    cell_bounds,
    coordinate_recovery,
    evaluate,
    law_of_representation,
)
from .martingale import (
    DecoupledRepresentation,
    construct_ci_copy,
    pair_law,
    represent_mds,
    verify_zero_sections,
)
from .transport import (
    SectionTransport,
    TransportMap,
    build_transport,
    independent_coupling,
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
)
from .harmonic import (
    harmonic_extension,
    harmonic_measure,
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

# the public functions and classes; not the submodules that imports bind here
__all__ = sorted(name for name, obj in globals().items()
                 if not name.startswith("_") and not isinstance(obj, _ModuleType))

__version__ = "0.1.0"
