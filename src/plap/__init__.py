"""Numerical lab for p-Laplace eigenfunctions and weighted Hardy equations.

indicial   -- index-function constants, root solving, placement classification
radial_ode -- 1-D/radial integration, shooting, decay-exponent fitting
blowup     -- translation/dilation rescaling limits and the far-field kernel
grid_pde   -- 2-D finite-difference solver and pointwise-identity diagnostics
cli        -- reproducible CSV-emitting verification campaigns
"""

from .blowup import (RescaleReport, martin_kernel_estimate, rescale_near_zero,
                     translate_rescale_at_infinity)
from .errors import (ConfigError, DomainError, IllConditioned, NoConvergence,
                     NoRealRoot, OutOfRange, SingularRatio, StepFailure)
from .grid_pde import (Field2D, SolveStats, bochner_residual, directional_range,
                       exponential_field, gradient_log_sup, kappa,
                       kappa_bound_check, p_laplace_residual,
                       representation_field, solve_dirichlet)
from .indicial import (IndicialData, ProblemParams, RootPlacement, auxiliary_f,
                       eigen_rate_alpha, gamma_star, hardy_best_constant,
                       indicial_roots, placement_satisfied)
from .radial_ode import (DecayFit, RadialProfile, ShootClass, ShootResult,
                         fit_decay_exponents, hardy_power_residual,
                         radial_exterior_eigen, riccati_ratio_flow,
                         series_start_radius, shoot_singular_profile)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
