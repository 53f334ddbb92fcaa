"""Exception hierarchy shared across the package.

Grouping matters for the CLI: subclasses of NumericalError map to exit code 5,
DimensionError to 4, ModelInvalidError to 2, and ConfigError and plain I/O
problems to 3.
"""
from __future__ import annotations

from typing import Optional


class SlsidError(Exception):
    """Base class for all package-specific errors.

    stage names the pipeline step that raised the error, when one did; str()
    then reads "<stage>: <message>".
    """

    stage: Optional[str] = None

    def __str__(self) -> str:
        text = self._message()
        return f"{self.stage}: {text}" if self.stage else text

    def _message(self) -> str:
        return super().__str__()


class ConfigError(SlsidError):
    """A run configuration, or an object read from one, is malformed or
    incomplete (CLI exit code 3)."""


class InvalidModeError(SlsidError, ValueError):
    """A letter falls outside the mode alphabet {1..D}."""


class InvalidProbabilityError(SlsidError, ValueError):
    """A probability vector has nonpositive entries or does not sum to 1."""


class DimensionError(SlsidError, ValueError):
    """Shapes or dimensions of operands do not match their contract."""


class ModelInvalidError(SlsidError, ValueError):
    """A model violates one of its structural invariants."""


class MissingMarkovParameterError(SlsidError, KeyError):
    """A word required by a Hankel matrix has no stored value."""

    def __init__(self, word_text: str):
        super().__init__(word_text)
        self.word_text = word_text

    def _message(self) -> str:  # KeyError quotes its arg; keep the message plain
        return f"no matrix stored for word '{self.word_text}'"


class InsufficientDataError(SlsidError, ValueError):
    """The dataset is too short for the requested estimation."""


class UndefinedBfrError(SlsidError, ValueError):
    """BFR is undefined (constant reference signal)."""


class NumericalError(SlsidError):
    """Base class for numerical failures (CLI exit code 5)."""


class SingularHankelError(NumericalError):
    """The main Hankel matrix has numerical rank below the target dimension."""

    def __init__(self, message: str, rank: int | None = None):
        super().__init__(message)
        self.rank = rank


class NonConvergenceError(NumericalError):
    """A fixed-point iteration hit its iteration limit, or a stationary second
    moment does not exist because its family is not mean-square stable."""

    def __init__(self, message: str, last_delta: float | None = None):
        super().__init__(message)
        self.last_delta = last_delta


class NotFullRankError(NumericalError):
    """A matrix that must be invertible (or positive definite) is not, numerically."""


class NoSelectionFoundError(NumericalError):
    """Selection search exhausted its budget without a full-rank Hankel."""


class NotIsomorphicError(NumericalError):
    """No state-space isomorphism links two models within tolerance.

    Carries the per-relation residuals of the best candidate for diagnosis.
    """

    def __init__(self, message: str, residuals: dict[str, float] | None = None):
        super().__init__(message)
        self.residuals = residuals or {}
