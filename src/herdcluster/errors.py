"""Exception hierarchy shared across the toolkit, and its one integer check."""

import operator


class HerdClusterError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(HerdClusterError):
    """Bad input data or configuration (CLI exit code 2)."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but statistically degenerate
    (zero variance, constant labels, ...)."""


class NumericalError(HerdClusterError):
    """A numerical routine failed to meet its contract (CLI exit code 3)."""


def integer(value, name: str) -> int:
    """`value` as a plain int, through `operator.index`: numpy integers pass,
    floats (2.0 too) do not. ValidationError naming `name` otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
