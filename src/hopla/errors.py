"""Exception types shared across the package."""


class AlgebraError(Exception):
    """Base class for every error raised by hopla."""


class BasisIndexError(AlgebraError):
    """A word refers to a basis index outside the space."""


class ArityError(AlgebraError):
    """Word length and operation arity disagree."""


class PositionError(AlgebraError):
    """Insertion position outside 0..arity-1."""


class LengthError(AlgebraError):
    """Permutation length and word/degree-list length disagree."""


class BlockError(AlgebraError):
    """Unshuffle block sizes must be positive."""


class ConventionError(AlgebraError):
    """hat/unhat convention tag does not match the requested use."""


class GradingError(AlgebraError):
    """The space is not concentrated in degree 0 where it must be."""


class KindError(AlgebraError):
    """Coalgebra word kind does not match the map's domain."""


class SymmetryError(AlgebraError):
    """A symmetry precondition fails; records where.

    `arity` is the offending operation's arity and `transposition` the
    adjacent transposition (k, k+1) under which invariance breaks.
    """

    def __init__(self, message, arity=None, transposition=None):
        super().__init__(message)
        self.arity = arity
        self.transposition = transposition


class LemmaViolationError(AlgebraError):
    """Two routes that must agree disagreed.  Never expected at runtime;
    raising it means the library itself is inconsistent."""


class DocumentError(AlgebraError):
    """A JSON algebra document failed validation.  `path` locates the
    offending field, json-pointer style."""

    def __init__(self, message, path=""):
        super().__init__(f"{path}: {message}" if path else message)
        self.message = message
        self.path = path

    def within(self, prefix: str) -> "DocumentError":
        """The same defect, located at `prefix` followed by this path."""
        return DocumentError(self.message, prefix + self.path)
