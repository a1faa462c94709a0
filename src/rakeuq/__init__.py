"""Uncertainty quantification for annular flow fields measured by rakes.

The package reconstructs a circumferential-harmonic model of a flow quantity
from rake measurements, propagates Gaussian measurement uncertainty through
the fit in closed form, derives the distribution of the spatial sampling
error, area-averages the field over the annulus, and carries the result into
an isentropic-efficiency uncertainty budget. Every noise model, correlated
noise included, has exact closed forms. A seeded Monte Carlo engine
cross-checks them and covers rake placement scatter, which has none.
"""

__version__ = "0.1.0"

from .area import AreaAverageResult, area_average, area_average_mean
from .efficiency import (
    DEFAULT_SIGMAS,
    DEFAULT_STATE,
    EfficiencyReport,
    StationState,
    block_correlation,
    correlation_sweep,
    efficiency,
    efficiency_gradient,
    taylor_variance,
)
from .errors import (
    DegenerateRatio,
    DimensionMismatch,
    DrawFailed,
    InvalidCorrelation,
    InvalidParams,
    NegativeComponent,
    NegativeVariance,
    NotPSD,
    OutOfDomain,
    RakeUqError,
    RegularizationExhausted,
    RequiresIidNoise,
    SchemaError,
    SingularDesign,
    TooFewSamples,
)
from .fourier import (
    DEFAULT_BETA,
    DEFAULT_LADDER,
    CoefficientMatrix,
    FourierModel,
    RadialBasis,
    build_design_matrix,
    design_matrix,
    fit,
    predict_point,
    station_predictions,
)
from .geometry import AnnulusGeometry, HarmonicSet
from .io import Campaign, build_report, campaign_from_dict, load_campaign
from .legacy import (
    DemoRow,
    HarmonicField,
    fig1_demo,
    legacy_sampling_uncertainty,
    rss_total,
)
from .montecarlo import (
    McPropagation,
    RakeMCResult,
    SamplerConfig,
    efficiency_mc,
    mc_propagate_model,
    rake_position_mc,
    sample_mvn,
)
from .propagation import (
    FieldDistribution,
    MeasurementDistribution,
    predictive_grid,
    unvec,
    validate_correlation,
    vec,
)
from .residuals import (
    ChiSquareParams,
    FrequencyScanResult,
    ScanEntry,
    UncertaintyMetrics,
    chi_square_params,
    compute_metrics,
    frequency_scan,
    noncentral_chisq_pdf,
    sampling_metric,
)

__all__ = [name for name in dir() if not name.startswith("_")]
