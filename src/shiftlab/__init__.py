"""Rate classification and desk-scale simulation for weighted shifts
and dissipative composition operators."""

from .canon import canonical_json, fingerprint
from .classify import (
    ClassificationReport,
    DistortionError,
    ExpansivityMode,
    Status,
    Verdict,
    classify_atomic,
    classify_atomic_expansive,
    classify_atomic_uniform,
    classify_report,
    classify_shift,
    implication_audit,
)
from .seqcore import (
    EventuallyPeriodicSequence,
    SequenceError,
    SideRate,
    side_geometric_means,
)
from .simulate import (
    AtomicOperator,
    BruteForceReport,
    BruteMode,
    CompositionOperator,
    NoSplitting,
    Pseudotrajectory,
    ShadowResult,
    ShiftOperator,
    Splitting,
    brute_force_expansivity,
    build_splitting,
    make_pseudotrajectory,
    operator_for,
    orbit_norms,
    shadow,
)
from .systems import (
    AtomicSystem,
    CellStructure,
    Cycle,
    DissipativeSystem,
    DistortionCertificate,
    InvalidSystem,
    MeasureSequence,
    StarCertificate,
    WeightSequence,
    check_bounded_distortion,
    check_star,
    derived_distortion_bound,
    induced_weights,
)

__version__ = "0.1.0"
