"""Exception hierarchy.

Everything raised on purpose derives from ChipError so the CLI can map
domain failures to exit status 1 while usage errors stay with argparse.
"""


class ChipError(Exception):
    """Base class for all domain errors raised by this package."""


class ConfigError(ChipError):
    """Configuration text failed to parse or violated an invariant."""


class GeometryError(ChipError):
    """Wire geometry violated an invariant (overlap, degenerate nodes, ...)."""


class FieldDomainError(ChipError):
    """Field requested at an invalid point, e.g. inside a conductor."""


class ConvergenceError(ChipError):
    """An iterative solver did not converge within its budget."""


class SaddlePointError(ChipError):
    """A supposed minimum turned out not to be one (Hessian not PSD)."""


class FieldZeroError(ChipError):
    """U = slope |B| has a cone, not a harmonic curvature, at a field zero."""


class ThermalRunawayError(ChipError):
    """Self-heating has no finite steady rise at the requested current."""


class FitError(ChipError):
    """Nonlinear fit failed (degenerate spectrum, no convergence, ...)."""
