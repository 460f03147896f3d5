"""Shared exception types."""


class KrullArithError(Exception):
    """Base class for all package errors."""


class ShapeError(KrullArithError):
    """Operands belong to different groups or alphabets."""


class AlphabetError(KrullArithError):
    """An element is missing from (or duplicated in) an alphabet."""


class DomainError(KrullArithError):
    """Input outside the mathematical domain of an operation (e.g. non-zero-sum)."""


class BoundExceededError(KrullArithError):
    """A configured search cap was hit; results would be incomplete."""


class ArgumentError(KrullArithError, ValueError):
    """A parameter fails a precondition (e.g. bound < 2), or a text argument
    does not parse.  It is also a ValueError, so callers may catch either."""
