"""Spiked clutter-plus-noise covariance estimation, detection, and validation toolkit."""

__version__ = "0.1.0"

from .rmt import (
    AspectRatio,
    EigenDecomposition,
    ModelOrderWarning,
    MPLaw,
    RegimeWarning,
    eigh,
    mp_cdf,
    mp_median,
    mp_pdf,
    sample_covariance,
)
from .shrinkage import (
    CltParams,
    CovarianceEstimate,
    SpikedModel,
    clt_params,
    cosine2,
    estimate_noise,
    f_map,
    g_map,
    shrink_spectrum,
    shrink_whitened,
    stein_shrinker,
)
from .rcml import rcml_estimate
from .scenario import (
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SnapshotSampler,
    SteeringSpec,
    ToeplitzClutter,
    amplitude_for_snr,
    challenge_synthetic,
    inject_target,
    preset,
    steering_vector,
    synthesize_clutter_covariance,
    truth_spiked_model,
)
from .metrics import (
    ScnrReport,
    kantorovich_bound,
    mvdr_error_variance,
    normalized_scnr,
    normalized_scnr_batch,
    stein_loss,
)
from .detector import (
    DetectionReport,
    DetectorConfig,
    clutter_projection,
    detect,
    test_statistic,
    theoretical_pd,
    threshold_for_pfa,
)
from .validate import (
    CltSpikeResult,
    KsResult,
    TrialPlan,
    ks_two_sample,
    sweep,
    verify_clt,
)
