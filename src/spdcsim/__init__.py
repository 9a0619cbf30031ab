"""Transverse-momentum correlations of noncollinear type-II SPDC photon pairs.

The package evaluates the two-photon mode function of a birefringent
type-II down-conversion source, traces out frequency against the detection
filters, maps detector positions through a 2f Fourier system and reduces
the resulting joint momentum distributions to correlation statistics.
"""

__version__ = "0.1.0"

from .dispersion import (
    C_LIGHT,
    MaterialFileError,
    SellmeierModel,
    UniaxialCrystal,
    WavelengthRangeError,
    group_slowness,
    index_extraordinary,
    index_ordinary,
    load_material,
    walkoff_angle,
)
from .kernel import (
    MODE_EXACT_SINC,
    MODE_GAUSSIAN_APPROX,
    SINC_GAUSSIAN_GAMMA,
    ParaxialWarning,
    PumpEnvelope,
    SpdcGeometry,
    TransverseWavevector,
    mismatch_longitudinal,
    mismatch_transverse_x,
    mismatch_transverse_y,
    mode_function,
    pump_envelope,
    spectral_envelope,
)
from .trace import (
    DetectionAssignment,
    DivergingIntegralError,
    FourierPlaneMap,
    OpticalSystem,
    QuadratureAccuracyWarning,
    SpectralFilter,
    biphoton_intensity,
    integrate_quadrature,
    pinhole_smooth,
    spatial_biphoton,
)
from .analysis import (
    AssignmentComparison,
    BracketError,
    CorrelationSummary,
    DegenerateDistributionError,
    JointDistribution,
    ScanPlan,
    assignment_sensitivity,
    auto_plan,
    find_sign_transition,
    run_scan,
    summarize,
    waist_sweep,
)
from .config import (
    ConfigError,
    ResolvedRun,
    RunConfig,
    default_config,
    load_config,
    resolve,
)
