"""Semantic exception hierarchy.

Public functions raise these instead of bare ValueError/RuntimeError so
callers (and the CLI exit-code mapping) can distinguish bad arguments from
genuine runtime failures.
"""


class HdPowerError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HdPowerError, ValueError):
    """An argument is outside the mathematical domain of an operation."""


class ParameterError(HdPowerError, ValueError):
    """A parameter vector lies outside the model's parameter space."""


class ConvergenceError(HdPowerError, RuntimeError):
    """A numerical series or iteration stopped at its step cap unconverged."""


class SpecError(HdPowerError, ValueError):
    """A test/regime specification string could not be parsed or validated."""
