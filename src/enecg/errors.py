"""Exception hierarchy shared by all enecg modules.

Each class maps to one stable CLI exit code (see cli.EXIT_CODES).
"""


class EnecgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EnecgError):
    """Shapes or axes incompatible with the requested operation."""


class UsageError(EnecgError):
    """An operation was called in a way its contract forbids."""


class ConfigError(EnecgError):
    """Bad experiment configuration (unknown key, type mismatch, bad value)."""


class ParseError(EnecgError):
    """Malformed record, checkpoint or manifest file."""


class NotApplicableError(EnecgError):
    """The requested strategy does not apply to this task kind."""


class NonFiniteLossError(EnecgError):
    """Training produced a NaN/Inf loss and was aborted."""


class InvariantError(EnecgError):
    """An internal invariant broke, e.g. frozen parameters changed in training."""
