"""Exception hierarchy shared across the package.

The CLI maps these onto fixed exit codes, so anything that should abort a
command with a specific code must raise the matching class.
"""

import math


class SliceforgeError(Exception):
    """Base class for all package errors."""


class ShapeError(SliceforgeError, ValueError):
    """Tensor shapes are inconsistent with the requested operation."""


class FormatError(SliceforgeError, ValueError):
    """A binary or JSON artifact is malformed, truncated or mislabeled."""


class DataError(SliceforgeError, ValueError):
    """A manifest or dataset violates its declared invariants."""


class ConfigError(SliceforgeError, ValueError):
    """A configuration value is out of range or internally inconsistent."""


class LeakageError(SliceforgeError):
    """A split places slices of one subject on both sides of a fold."""

    def __init__(self, leaked_subject_ids):
        self.leaked_subject_ids = list(leaked_subject_ids)
        super().__init__(
            "subject-level leakage detected for %d subject(s): %s"
            % (len(self.leaked_subject_ids), ", ".join(self.leaked_subject_ids))
        )


class NumericError(SliceforgeError, ArithmeticError):
    """A numeric contract was violated (NaN/Inf where finiteness is required)."""


def check_int(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is an integer (a bool is not), as a
    JSON config or plan must give it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a finite int or float (a bool is not)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
            -math.inf < value < math.inf):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
