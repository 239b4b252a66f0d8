"""Exception hierarchy for fracperim."""


class FracPerimError(Exception):
    """Base class for all fracperim errors."""


class DegenerateDomain(FracPerimError):
    """Window is empty or covers every cell, so no boundary exists."""


class SpecMismatch(FracPerimError):
    """Operands were built on different grid specs."""


class InvalidInterval(FracPerimError):
    """Interval endpoints are not properly ordered."""


class InvalidRadius(FracPerimError):
    """Radius is out of range: not positive for a ball, negative or
    non-finite for a truncation, not positive and finite for a mollifier."""


class NotDisjoint(FracPerimError):
    """Interaction requires disjoint cell masks."""


class NotNested(FracPerimError):
    """Decomposition requires the inner window to be contained in the outer."""


class InvalidSequence(FracPerimError):
    """Sequence generator violated its monotonicity contract."""


class EpsilonBelowResolution(FracPerimError):
    """Mollification radius below the grid cell size is meaningless."""


class InvalidSchedule(FracPerimError):
    """Schedule must be monotone."""


class InvalidTolerance(FracPerimError):
    """A solver's gap tolerance is not a number >= 0."""


class OracleTooLarge(FracPerimError):
    """Too many free cells for exhaustive enumeration."""


class WindowTooShort(FracPerimError):
    """Vertical window does not cover the requested cylinder height."""


class HypothesisViolated(FracPerimError):
    """Input violates the boundedness hypothesis of the scan."""


class ConfinementUndetermined(FracPerimError):
    """The vertical sandwich is violated at the grid's vertical extremes."""


class InvalidShape(FracPerimError):
    """Shape DSL document could not be interpreted."""
