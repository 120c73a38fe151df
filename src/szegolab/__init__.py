"""Numerical toolkit for weighted-L2 completeness of exponential systems.

Builds the two explicit objects behind the removal dichotomy (dropping the
cubes keeps the exponentials complete, dropping the squares does not): a
slit-plane product vanishing on a sparse frequency set, and a lacunary
sine series with a deep zero at the origin, plus projection probes that
measure completeness residuals in weighted L2 on the circle.
"""

from .blaschke import (BlaschkeAnnihilator, JumpFunction,
                       cauchy_identity_residual, compute_G,
                       convolution_identity_residual, eval_phi,
                       eval_phi_boundary, g_l1_norm, gamma_vanishing_residual)
from .deep_zero import (DeepZeroSeries, decay_fit, eval_F, eval_h,
                        eval_H_integral, eval_H_series, membership_check,
                        series_coefficients)
from .frequency_sets import (FrequencySet, complement_in_range,
                             condition_B_check, gen_interval_blocks,
                             gen_power_set, primes_upto, sqrt_sum_diagnostic,
                             thin_to_condition_B)
from .probe import (AnnihilatorTarget, ProbeConfig, ResidualCurve,
                    TrigPolyTarget, gram_matrix, residual_curve,
                    weight_fourier_coeff, weighted_residual)
from .quadrature import (QuadratureResult, integrate_finite,
                         integrate_left_halfline)
from .weights import (Weight, log_integral, make_exp_weight,
                      make_constant_weight, make_tabulated_weight,
                      validate_condition_A)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BlaschkeAnnihilator", "JumpFunction", "cauchy_identity_residual",
    "compute_G", "convolution_identity_residual", "eval_phi",
    "eval_phi_boundary", "g_l1_norm", "gamma_vanishing_residual",
    "DeepZeroSeries", "decay_fit", "eval_F", "eval_h", "eval_H_integral",
    "eval_H_series", "membership_check", "series_coefficients",
    "FrequencySet", "complement_in_range", "condition_B_check",
    "gen_interval_blocks", "gen_power_set", "primes_upto",
    "sqrt_sum_diagnostic", "thin_to_condition_B",
    "AnnihilatorTarget", "ProbeConfig", "ResidualCurve", "TrigPolyTarget",
    "gram_matrix", "residual_curve", "weight_fourier_coeff",
    "weighted_residual",
    "QuadratureResult", "integrate_finite", "integrate_left_halfline",
    "Weight", "log_integral", "make_exp_weight",
    "make_constant_weight", "make_tabulated_weight", "validate_condition_A",
]
