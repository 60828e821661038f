"""Exception hierarchy shared by all enecg modules, plus their UTF-8 line reader.

Each class maps to one stable CLI exit code (see cli.EXIT_CODES); a
ConfigError is also a UsageError, so library callers catch it as one.
"""


class EnecgError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EnecgError):
    """Shapes or axes incompatible with the requested operation."""


class UsageError(EnecgError):
    """An operation was called in a way its contract forbids."""


class ConfigError(UsageError):
    """Bad experiment configuration (unknown key, type mismatch, bad value)."""


class ParseError(EnecgError):
    """Malformed record or checkpoint file."""


class NotApplicableError(EnecgError):
    """The requested strategy does not apply to this task kind."""


class NonFiniteLossError(EnecgError):
    """Training produced a NaN/Inf loss and was aborted."""


class InvariantError(EnecgError):
    """An internal invariant broke, e.g. frozen parameters changed in training."""


def read_lines(path, error: type[EnecgError] = ParseError) -> list[str]:
    """Lines of a UTF-8 text file; undecodable bytes raise ``error``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text: {e}") from e
