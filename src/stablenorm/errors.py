"""Exception types shared across the package, and the one meter every
bounded search spends its budget through."""

from typing import Callable, Optional


class ValidationError(ValueError):
    """Input fails a documented precondition (bad norm parameters,
    non-primitive class where a primitive one is required, malformed
    scenario file, ...)."""


class SearchBudgetError(RuntimeError):
    """A search needed more work than its budget before proving its
    result; `SearchMeter` raises it.  `nodes_expanded` is the work spent,
    in the meter's unit, so a retry can size a larger budget.
    """

    def __init__(self, message: str, *, nodes_expanded: int, budget: int):
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.budget = budget


class SearchMeter:
    """The budget of one search, an integer of at least 1 (not a bool),
    and the work it has `spent`, in `unit`s.  A hot loop counts in a
    local int and spends it in lumps: per layer, at its end, or once its
    own count passes `budget`.  `detail`, called only when the budget
    runs out, says where the search stood.
    """

    def __init__(self, budget: int, search: str, unit: str):
        if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
            raise ValidationError(f"search budget must be an integer of at least 1, got {budget!r}")
        self.budget = budget
        self.search = search
        self.unit = unit
        self.spent = 0

    def spend(self, n: int, detail: Optional[Callable[[], str]] = None) -> None:
        """Add n to `spent`; raise once it is past the budget."""
        self.spent += n
        if self.spent > self.budget:
            self._refuse(detail)

    def reserve(self, n: int, detail: Optional[Callable[[], str]] = None) -> None:
        """Raise, spending nothing, if n more would pass the budget: a
        search calls this before it allocates what the n need."""
        if self.spent + n > self.budget:
            self._refuse(detail)

    def _refuse(self, detail: Optional[Callable[[], str]]) -> None:
        message = f"{self.search} needs more than its budget of {self.budget} {self.unit}"
        if detail is not None:
            message += f": {detail()}"
        raise SearchBudgetError(message, nodes_expanded=self.spent, budget=self.budget)


class ConstructionError(RuntimeError):
    """A geometric construction (arc-polygon rounding, sharpness witness)
    could not be completed within its documented parameter range."""


class InvariantError(RuntimeError):
    """A result failed the package's own consistency check (a search
    length that its exact recompute does not reproduce, a seed loop of
    the wrong class); a bug to report, not bad input."""
