"""Exception hierarchy shared across the package.

Every failure raised on purpose derives from EanetError so callers (and the
CLI) can separate expected problems from genuine bugs. `require_finite` is
the one rule every settings dataclass applies before its range checks.
"""

import dataclasses
import math


class EanetError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(EanetError):
    """Tensor shapes are incompatible for the requested operation."""


class ContractError(EanetError):
    """A documented precondition was violated by the caller."""


class ParseError(EanetError):
    """A text input (scene file, config, CSV report) could not be parsed."""


class DataError(EanetError):
    """Input data is structurally valid but semantically inconsistent."""


class ConfigError(EanetError):
    """A configuration value is out of its documented range."""


def require_finite(settings) -> None:
    """Raise ConfigError unless every float field of the dataclass
    ``settings`` is finite. A None passes (``clip_norm`` uses it to mean
    off); NaN would pass every ``x <= 0`` range check."""
    for field in dataclasses.fields(settings):
        value = getattr(settings, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value!r}")


class CheckpointError(EanetError):
    """A checkpoint file is missing, corrupt, or incompatible."""


class TrainingDiverged(EanetError):
    """Offline training hit a non-finite loss and was aborted. ``loss_log``
    holds the mean losses of the epochs that finished before it."""

    def __init__(self, message, epoch=None, step=None, loss_log=()):
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.loss_log = list(loss_log)
