"""Exception types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside the admissible range of an operation."""


class NoRealRoot(DomainError):
    """The index equation has no real root for the requested coefficient."""


class StepFailure(RuntimeError):
    """An integrator produced a non-finite state or collapsed its step size."""


class SingularRatio(RuntimeError):
    """The logarithmic-derivative flow reached zero, where its coefficient degenerates."""


class NoConvergence(RuntimeError):
    """Damped Newton iteration exhausted its iteration or damping budget."""


class OutOfRange(ValueError):
    """A requested evaluation point lies outside the sampled profile domain."""


class IllConditioned(ValueError):
    """Too few samples in the fitting window for a stable least-squares fit."""


class ConfigError(ValueError):
    """An experiment configuration violates its schema or a parameter invariant."""
