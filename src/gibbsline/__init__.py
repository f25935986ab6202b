"""Pressure, equilibrium states and zero-temperature limits for countable
Markov shifts, computed through nested compact truncations."""

from . import errors
from .bundled import BUNDLED_NAMES, bundled_pair
from .ergodic_opt import (
    CriticalDecomposition,
    K0Report,
    critical_decomposition,
    detect_k0,
    max_entropy_over_maximizing,
    max_mean_cycle,
    subaction,
)
from .limits import (
    EntropyLimitReport,
    GridPoint,
    KLimitTable,
    IntegralLimitReport,
    MuInftyEstimate,
    SemicontinuityReport,
    SweepResult,
    TightnessReport,
    ZeroTempResult,
    entropy_limit,
    entropy_upper_semicontinuity_check,
    equilibrium_limit_in_k,
    integral_limit_check,
    pressure_sweep,
    tightness_bound_check,
    zero_temp_sweep,
)
from .potential import (
    Family,
    MarkovPotential,
    SummabilityCertificate,
    TailDescriptor,
    TailKind,
    check_summability,
    check_summability_t,
    variation,
)
from .rpf_finite import (
    MarkovMeasure,
    PerronData,
    cylinder_mass,
    entropy,
    equilibrium,
    equilibrium_measure,
    gurevich_estimate,
    integral,
    partition_entropy,
    perron,
    pressure,
    transfer_matrix,
)
from .shift_model import (
    ModelKind,
    ShiftModel,
    TailRule,
    Truncation,
    build_truncation,
)

__version__ = "0.1.0"
