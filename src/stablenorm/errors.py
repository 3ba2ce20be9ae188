"""Exception types shared across the package, and the budget check
every search makes before it starts."""


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


def check_budget(budget: int) -> None:
    """A search needs room for at least one step: its budget must be an
    integer of at least 1, not a bool or a float."""
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise ValidationError(f"search budget must be an integer of at least 1, got {budget!r}")


class ConstructionError(RuntimeError):
    """A geometric construction (arc-polygon rounding, sharpness witness)
    could not be completed within its documented parameter range."""


class InvariantError(RuntimeError):
    """A result failed the package's own consistency check (a search
    length that its exact recompute does not reproduce, a seed loop of
    the wrong class); a bug to report, not bad input."""
