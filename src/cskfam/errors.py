"""Exception and warning types shared across the package, the argument
checks that raise them, and :func:`value_or_error` for batched answers
with its inverse :func:`raise_error`."""

import math


class CskfamError(Exception):
    """Base class for all toolkit errors."""


class DomainError(CskfamError, ValueError):
    """An argument lies outside the admissible domain of an operation."""


class SingularityError(DomainError):
    """Evaluation requested at a singular point (on the support, at a pole)."""


class InsufficientDataError(CskfamError, ValueError):
    """A truncated representation does not carry enough information."""


class NumericError(CskfamError, RuntimeError):
    """Root bracketing or iteration failed for numerical reasons."""


class MeasureSpecError(CskfamError, ValueError):
    """A measure specification document is malformed.

    ``location`` points at the offending field (JSON-path style) or at the
    line/column for syntax errors.
    """

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location


class FormalPowerWarning(UserWarning):
    """A convolution power was computed outside its guaranteed regime.

    The coefficient arithmetic is well defined, but the result is a formal
    moment sequence that may not correspond to a probability measure.
    """


class TruncationAccuracyWarning(UserWarning):
    """A truncated-series evaluation was requested outside its trust region."""


# ---------------------------------------------------------------------------
# argument checks, each written to be false for nan as well


def require_positive(name: str, x: float):
    """Raise :class:`DomainError` unless ``x`` is positive and finite."""
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} = {x:g} must be positive and finite")


def require_nonnegative(name: str, x: float):
    """Raise :class:`DomainError` unless ``x`` is nonnegative and finite."""
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} = {x:g} must be nonnegative and finite")


def require_order(order: int):
    """Raise :class:`DomainError` unless ``order``, a number of moments, is at least 1."""
    if order < 1:
        raise DomainError("moment order must be at least 1")


def value_or_error(fn, *args):
    """``fn(*args)``, or the :class:`CskfamError` it raises, returned without
    its traceback: the answer at one point of a batch, which must neither
    stop the others nor keep the frames it was raised in alive."""
    try:
        return fn(*args)
    except CskfamError as exc:
        return exc.with_traceback(None)


def raise_error(answer):
    """The inverse of :func:`value_or_error`: ``answer``, raised when it is a
    stored :class:`CskfamError` and returned otherwise."""
    if isinstance(answer, CskfamError):
        raise answer
    return answer
