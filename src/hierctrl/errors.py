"""Exception types shared across the solver library."""


class HierctrlError(Exception):
    """Base class for all library errors."""


class InvalidGrid(HierctrlError):
    pass


class EmptyMask(HierctrlError):
    pass


class ShapeMismatch(HierctrlError):
    pass


class SingularMatrix(HierctrlError):
    pass


class MaxIterations(HierctrlError):
    """Iteration budget exhausted; carries the best (for fixed points, the
    last) iterate and the history.  A multi-shift CG also carries its
    shifts and, per shift, the iteration it converged at (None if it did
    not)."""

    def __init__(self, message, best=None, iterations=0, history=None, shifts=None, shift_iterations=None):
        super().__init__(message)
        self.best = best
        self.iterations = iterations
        self.history = history if history is not None else []
        self.shifts = shifts
        self.shift_iterations = shift_iterations


class NonFiniteBreakdown(HierctrlError):
    pass


class ContractionFailure(HierctrlError):
    """Fixed-point iteration diverged; carries the measured growth ratio."""

    def __init__(self, message, ratio=None, iterations=0):
        super().__init__(message)
        self.ratio = ratio
        self.iterations = iterations


class OuterDivergence(ContractionFailure):
    """The semilinear outer loop diverged."""


class TooLarge(HierctrlError):
    pass


class CaseMismatch(HierctrlError):
    pass


class InvalidCenter(HierctrlError):
    pass


class UnsupportedNonlinearity(HierctrlError):
    pass


class ParseError(HierctrlError):
    """Expression syntax error with byte offset and the tokens expected there."""

    def __init__(self, message, offset, expected=()):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset
        self.expected = tuple(expected)


class ConfigError(HierctrlError):
    pass
