"""Resource budgets: a cap on enumerated states and on wall-clock seconds.

The solvers, the oracles and the planarizer take a `Budget` and charge
their work to a `_BudgetClock`; exceeding either limit raises
ResourceBudgetError, so callers can tell "no" from "too big". The module
loads no solver, so a command that only needs the budget does not pay for
one.
"""

from __future__ import annotations

import time

from .errors import PreconditionError, ResourceBudgetError
from .record import Record

DEFAULT_MAX_STATES = 5_000_000
DEFAULT_MAX_SECONDS = 60.0


class Budget(Record):
    max_states: int = DEFAULT_MAX_STATES
    max_seconds: float = DEFAULT_MAX_SECONDS

    def __post_init__(self):
        # No count or time is ever greater than NaN, so it would bound nothing.
        if self.max_states != self.max_states or self.max_seconds != self.max_seconds:
            raise PreconditionError(f"budget limits must be numbers, not NaN: {self}")


class _BudgetClock:
    """States charged so far against `budget`, and the clock reading at
    `start`. The one mutable value type, so a plain slotted class."""

    __slots__ = ("budget", "start", "counted")

    def __init__(self, budget: Budget, start: float, counted: int = 0):
        self.budget = budget
        self.start = start
        self.counted = counted

    @classmethod
    def begin(cls, budget: Budget | None) -> "_BudgetClock":
        return cls(budget or Budget(), time.monotonic())

    def charge(self, states: int = 1) -> None:
        self.counted += states
        if self.counted > self.budget.max_states:
            raise ResourceBudgetError(
                f"state budget exceeded ({self.counted} > {self.budget.max_states})"
            )
        if self.counted % 4096 < states:  # the count crossed a multiple of 4096
            self.check_time()

    def check_room(self, states: int) -> None:
        """Read the clock, and raise now if charging `states` more would
        exceed the state budget; for work that builds what it charges later."""
        if self.counted + states > self.budget.max_states:
            raise ResourceBudgetError(
                f"state budget exceeded ({self.counted + states} > {self.budget.max_states})"
            )
        self.check_time()

    def check_time(self) -> None:
        """Read the clock now; for loops whose single steps are expensive."""
        if time.monotonic() - self.start > self.budget.max_seconds:
            raise ResourceBudgetError(f"time budget exceeded ({self.budget.max_seconds}s)")
