"""Exception hierarchy shared across the package.

Domain invariant violations raise subclasses of ProcessError; malformed
input files raise FormatError.  The CLI maps these onto distinct exit
codes (1 for invariants, 2 for I/O and parsing, 3 for failed statistical
gates).
"""


class CanonrepError(Exception):
    """Base class for package errors.

    Structured context (offending prefix, measured value, ...) is kept in
    ``info`` so callers can inspect a failure without parsing the message.
    """

    def __init__(self, message: str = "", **info):
        super().__init__(message)
        self.info = info


class ProcessError(CanonrepError):
    """A domain invariant does not hold."""


class FormatError(CanonrepError):
    """Input file or document does not match the expected schema."""


class NonPositiveProb(ProcessError):
    """A branch probability is zero or negative."""


class ProbSumNotOne(ProcessError):
    """Branch probabilities at a node do not sum to exactly one."""


class RaggedDepth(ProcessError):
    """Some root-to-leaf path does not have the declared length."""


class DimensionMismatch(ProcessError):
    """A value's dimension differs from the process dimension."""


class UnreachablePrefix(ProcessError):
    """The given value prefix is not realizable in the tree."""


class UnreachablePath(ProcessError):
    """The given value path is not realizable in the representation."""


class XOutOfRange(ProcessError):
    """A coordinate lies outside the open unit interval (or unit cube)."""


class NotMartingaleDifference(ProcessError):
    """A conditional mean is nonzero where a zero mean is required."""


class NotTangent(ProcessError):
    """The two components of a pair process have differing step laws."""


class DegenerateBatch(ProcessError):
    """A sample batch carries no usable signal (all path sums are zero, or
    their p-th powers overflow floats)."""


class TooCloseToBoundary(ProcessError):
    """Evaluation point is within the guard band of the unit circle."""


class StepTooCoarse(ProcessError):
    """Too many simulated blocks exited after fewer than the minimum steps."""


class NoDiskExit(ProcessError):
    """An euler block stayed inside the disk up to the censoring horizon in
    every attempt."""


class SizeGuard(ProcessError):
    """A requested size exceeds a guard limit (fixtures, euler steps)."""
