"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Input fails a documented precondition (bad norm parameters,
    non-primitive class where a primitive one is required, malformed
    scenario file, ...)."""


class SearchBudgetError(RuntimeError):
    """An enumeration exceeded its node budget before proving its result.

    Carries enough context to retry with a larger budget.
    """

    def __init__(self, message: str, *, nodes_expanded: int, budget: int):
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.budget = budget


class ConstructionError(RuntimeError):
    """A geometric construction (arc-polygon rounding, sharpness witness)
    could not be completed within its documented parameter range."""


class InvariantError(RuntimeError):
    """A result failed the package's own consistency check (a search
    length that its exact recompute does not reproduce, a seed loop of
    the wrong class); a bug to report, not bad input."""
