"""Exception hierarchy shared across the package, and the one rule each for a
named choice and for the integers and numbers taken in."""

import contextlib
import math
import numbers
from sys import float_info


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


@contextlib.contextmanager
def as_config_error(prefix: str = "", caught: type[Exception] = ContractError):
    """Re-raise a caught error from the block as a ConfigError led by prefix:
    input from a file or a config that breaks a rule is bad configuration."""
    try:
        yield
    except caught as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_number(value) -> bool:
    # NaN, infinities and ints beyond float range fail; float and int skip the class test
    if type(value) is float or type(value) is int:
        return abs(value) <= float_info.max
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def plain(value):
    """An accepted integer or number as the int or float that json writes."""
    return int(value) if is_integer(value) else float(value)


def check_integer(name: str, value, error: type[FcmReduceError], minimum: int | None) -> int:
    """value as a plain int; `error` unless it is an integer >= minimum, if any."""
    if not is_integer(value) or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")
    return int(value)


def check_choice(what: str, value, names: tuple, error: type[FcmReduceError]) -> str:
    """value; `error` naming the valid names (a tuple) unless it is a string
    among them, so a list, dict or other value raises `error`, never TypeError."""
    if not (isinstance(value, str) and value in names):
        raise error(f"unknown {what} {value!r}; valid: {names}")
    return value


def number_text(text: str) -> str:
    """text, unless it holds a blank, a '_' or a non-ASCII character, which
    int() and float() take but no writer emits: then ValueError."""
    if not text.isascii() or "_" in text or text.strip() != text:
        raise ValueError(f"{text!r} is not a plain ASCII number")
    return text
