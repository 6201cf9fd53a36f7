"""Exception types shared across the package."""


class RclError(Exception):
    """Base class for all package errors."""


class ValidationError(RclError):
    """Raised when an input fails structural validation.

    Carries the full list of violated invariants so callers can report
    everything that is wrong at once instead of failing one check at a time.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DimensionError(RclError):
    """Array lengths do not match the model dimensions."""


class DomainError(RclError):
    """A function was evaluated outside its mathematical domain."""


class RangeError(RclError):
    """A value lies outside its admissible interval."""


class SizeCapError(RclError):
    """A combinatorial enumeration would exceed its hard cap."""


class PreconditionError(RclError):
    """A documented operation precondition does not hold."""


class NonConvergenceError(RclError):
    """An iterative routine failed to reach its tolerance."""


class InconclusiveError(RclError):
    """A numerical check could not produce a verdict either way."""
