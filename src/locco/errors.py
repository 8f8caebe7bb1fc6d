"""Exception types shared across the package."""


class LoccoError(Exception):
    """Base class for all package-specific errors."""


class ModelError(LoccoError):
    """A cover model or one of its parts fails validation."""


class BudgetError(LoccoError):
    """A tuple enumeration would exceed the configured budget."""

    def __init__(self, size: int, budget: int, what: str):
        self.size = size
        self.budget = budget
        self.what = what
        super().__init__(
            f"enumeration of {what} needs {size} raw tuples "
            f"but the budget is {budget}; raise LOCCO_BUDGET"
        )


class CoefficientError(LoccoError):
    """A value or scalar does not fit the selected coefficient system."""


class DomainError(LoccoError):
    """A cochain or family refers to tuples outside its declared domain."""


class SupportError(LoccoError):
    """A weight family violates its declared supports."""


class AcyclicityError(LoccoError):
    """An isomorphism check ran on a cover violating its acyclicity hypothesis."""


class UncoveredSampleError(LoccoError):
    """A partition-of-unity construction left some sample with all weights zero."""

    def __init__(self, samples: list):
        self.samples = samples
        head = ", ".join(str(s) for s in samples[:5])
        more = "" if len(samples) <= 5 else f" (and {len(samples) - 5} more)"
        super().__init__(f"samples with no positive weight: {head}{more}")
