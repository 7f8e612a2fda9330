"""Enumeration budgets shared across the toolkit.

Budgets are hard errors, never silent truncation.  Library calls take an
optional explicit budget; when absent, the ``CCKER_BUDGET`` environment
variable applies, and a per-kind default otherwise.
"""

from __future__ import annotations

import os

ENV_VAR = "CCKER_BUDGET"

# Explicit tuple/matrix enumerations (relation construction, witness search,
# capture checks, the polynomial kernel's tuples x monomials matrix).
DEFAULT_TUPLE_BUDGET = 10_000_000

# Oracle search effort: colorings in full-enumeration mode, explored nodes in
# decision mode.
DEFAULT_SEARCH_BUDGET = 2**30


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed its configured budget."""

    def __init__(self, what: str, size: int, budget: int):
        super().__init__(f"{what}: {size} steps exceed budget {budget}")
        self.what = what
        self.size = size
        self.budget = budget


def resolve_budget(budget: int | None, default: int) -> int:
    """Pick the effective budget: explicit > environment > default."""
    if budget is None:
        env = os.environ.get(ENV_VAR)
        budget = int(env) if env else default
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    return budget


def charge(what: str, size: int, budget: int) -> None:
    if size > budget:
        raise BudgetExceededError(what, size, budget)


def charge_grid(what: str, q: int, r: int, budget: int) -> None:
    """Charge the q^r points of the grid [q]^r, or r if that is more, since
    each point has r digits, before anything of that size is built.  A file
    header sets q and r, so a power of more than 4096 bits that must exceed
    the budget is reported as q^r rather than computed."""
    if q >= 2 and r * (q.bit_length() - 1) > max(4096, budget.bit_length()):
        raise BudgetExceededError(what, f"{q}^{r}", budget)
    charge(what, max(q**r, r), budget)
