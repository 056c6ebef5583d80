"""Exception hierarchy shared across the package, and the one integer check."""

import numbers


class FcmReduceError(Exception):
    """Base class for all package errors."""


class ContractError(FcmReduceError):
    """An operation was called with arguments violating its preconditions."""


class ConfigError(FcmReduceError):
    """Invalid or unresolvable configuration (bad names, labels, ranges)."""


class GenerationError(FcmReduceError):
    """A population or topology generator could not produce a valid result."""


class ChannelError(FcmReduceError):
    """No shared concept available to carry an interaction tie."""


class MetricError(FcmReduceError):
    """A comparison measure is undefined for the given inputs."""


class ReportError(FcmReduceError):
    """Fidelity reporting was asked to summarize unusable data."""


def check_integer(name: str, value, error: type[FcmReduceError]) -> None:
    """Raise `error` unless value is an integer. bool is an int subclass, so
    it is excluded by name."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise error(f"{name} must be an integer, got {value!r}")
