"""Exception types shared across the package.

DomainError and its subclasses mean one thing: an input lies outside what
the operation admits.  Valid input whose numbers leave the double range
raises an ArithmeticError instead (OverflowError, or ZeroDivisionError for
a quotient with a zero divisor), and a step that fails on valid input a
RuntimeError (StepFailure, SingularRatio, NoConvergence).  The `plap`
command line turns a DomainError of a targeted campaign into a config
error, exit code 2; every other error fails the campaign, exit code 1.
"""


class DomainError(ValueError):
    """An input lies outside what the operation admits."""


class NoRealRoot(DomainError):
    """The index equation has no real root for the requested coefficient."""


class StepFailure(RuntimeError):
    """An integrator produced a non-finite state or collapsed its step size."""


class SingularRatio(RuntimeError):
    """The logarithmic-derivative flow reached zero, where its coefficient degenerates."""


class NoConvergence(RuntimeError):
    """Damped Newton iteration exhausted its iteration or damping budget."""


class OutOfRange(DomainError):
    """A requested evaluation point lies outside the sampled profile domain."""


class IllConditioned(DomainError):
    """Too few samples in the fitting window for a stable least-squares fit."""


class ConfigError(ValueError):
    """An experiment configuration violates its schema or a parameter invariant."""
