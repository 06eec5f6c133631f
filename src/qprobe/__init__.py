"""First-detection statistics of quantum systems under random probing.

The package computes, exactly, the distribution-averaged statistics of
the first successful projective detection of a target state when a
finite quantum system is probed at IID random times: the detection
series, the total detection probability, and the conditional moments of
the attempt number and of the elapsed time.  A vectorized Monte Carlo
simulator and a set of closed-form special cases (rings with exponential
intervals, the two-level system) serve as independent cross-checks.
"""

from .closedform import (RingCase, RingCaseTag, TwoLevelStats,
                         classify_ring_case, ring_nbar_exp, ring_nsq_exp,
                         ring_tsq_exp, tls_stats)
from .errors import (ConfigError, ConvergenceError, DegenerateProblemError,
                     DenseSizeError, DivergenceError, IllConditionedError,
                     InvalidModelError, QprobeError)
from .intervals import (ExponentialInterval, FixedInterval, GammaInterval,
                        IntervalDistribution)
from .model import (QuantumModel, SpectralData, basis_state, build_dense,
                    build_ring, build_two_level, ring_spectrum,
                    spectral_full, spectral_reduce)
from .superop import (DetectionStatistics, IdentityReport, SuperoperatorSet,
                      ZeroModeCensus, build_superops, detection_stats,
                      fn_series, universal_identity_check, zero_mode_census)
from .trajectory import TrajectoryEnsemble, run_bernoulli, run_per_realization
from .verify import run_verify, stroboscopic_fn_direct

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "ConvergenceError", "DegenerateProblemError",
    "DenseSizeError", "DetectionStatistics",
    "DivergenceError", "ExponentialInterval", "FixedInterval",
    "GammaInterval", "IdentityReport", "IllConditionedError",
    "IntervalDistribution", "InvalidModelError", "QuantumModel",
    "QprobeError", "RingCase", "RingCaseTag", "SpectralData",
    "SuperoperatorSet", "TrajectoryEnsemble", "TwoLevelStats",
    "ZeroModeCensus", "basis_state", "build_dense", "build_ring",
    "build_superops", "build_two_level", "classify_ring_case",
    "detection_stats", "fn_series", "ring_nbar_exp", "ring_nsq_exp",
    "ring_spectrum", "ring_tsq_exp", "run_bernoulli", "run_per_realization",
    "run_verify", "spectral_full", "spectral_reduce", "stroboscopic_fn_direct",
    "tls_stats", "universal_identity_check", "zero_mode_census",
]
