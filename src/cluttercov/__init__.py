"""Spiked clutter-plus-noise covariance estimation, detection, and validation toolkit."""

__version__ = "0.1.0"

from .rmt import (
    AspectRatio,
    EigenDecomposition,
    ModelOrderWarning,
    MPLaw,
    RegimeWarning,
    eigh,
    mp_median,
    sample_covariance,
)
from .shrinkage import (
    CltParams,
    SpikedCovariance,
    cosine2,
    detect_spikes,
    estimate_noise,
    f_map,
    g_map,
    shrink_spectrum,
    stein_shrinker,
)
from .rcml import rcml_estimate
from .scenario import (
    ConfigError,
    Scatterer,
    ScattererClutter,
    ScenarioConfig,
    SceneOverflowError,
    SnapshotSampler,
    SpikedClutter,
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
    kantorovich_bound,
    mvdr_error_variance,
    normalized_scnr_batch,
    stein_loss,
)
from .detector import (
    DetectionReport,
    detect,
    theoretical_pd,
)
from .validate import (
    CltSpikeResult,
    KsResult,
    TrialPlan,
    ks_two_sample,
    sweep,
    verify_clt,
)
