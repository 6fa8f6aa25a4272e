"""Simulation and verification toolkit for interference in beta-Ginibre
wireless networks: exact disk-restricted spectra, determinantal samplers,
shot-noise interference, large-deviation rate functions and rare-event
Monte Carlo estimators."""

from .errors import CapExceededError, MgfDivergenceError, SamplerStallError
from .fading import FADING_KINDS, FadingSpec
from .interference import NetworkModel, attenuation
from .patterns import PointPattern, RngStream, read_pattern_csv
from .rates import (LdpRegime, ProofConstants, growth_function,
                    limit_constant, poisson_comparison, proof_constants, rate,
                    speed, tail_asymptote, weibull_rate_constant)
from .samplers import (sample_block, sample_counts, sample_pattern,
                       sample_poisson)
from .spectral import (DiskRestriction, count_distribution, eigenvalues,
                       log_count_tail, pair_correlation, trace_bound)
from .estimation import (SlopeReport, TailEstimate, dominating_event_probe,
                         estimate_interference_tail, speed_regression,
                         subexp_sum_ratio)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
