"""Exception hierarchy shared by all modules."""


class DowlingNestError(Exception):
    """Base class for all library-specific errors."""


class InstanceError(DowlingNestError):
    """Invalid input data: bad group table, non-faithful representation, malformed JSON."""


class OrderBoundExceeded(DowlingNestError):
    """Group order above the configured enumeration bound."""


class SizeBoundExceeded(DowlingNestError):
    """An enumeration (lattice, nested sets, forests) grew past its cap."""


class AmbientMismatch(DowlingNestError):
    """Subspace operation on operands with different ambient dimensions."""


class AbelianOnly(DowlingNestError):
    """Requested a computation that is only defined for abelian groups."""


class NonInvertibleConstantTerm(DowlingNestError):
    """Series inversion needs a nonzero rational constant term."""


class MalformedForest(DowlingNestError):
    """Structurally broken forest: duplicate/missing leaf labels, bad node data."""


class NotRealizable(DowlingNestError):
    """No valid forest labeling exists; indicates an internal consistency failure."""
