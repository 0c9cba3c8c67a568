"""Exception types shared across the package, and ``rounded_counts``, the
one integrality guard of every count computed in floating point.

The CLI maps these onto stable exit codes, so keep the hierarchy flat:
plain ``ValueError`` covers ordinary argument validation.
"""

import numpy as np

# A count computed in floating point (an FFT convolution or a grid
# extraction) this far from an integer means the precision budget is gone;
# refuse with ConsistencyError instead of silently rounding.
ROUNDING_GUARD = 1e-3


class TableTooSmallError(ValueError):
    """A computation referenced integers beyond the sieve table's limit."""


class ArcOverlapError(ValueError):
    """Requested Farey dissection parameters would produce overlapping arcs."""


class BudgetExceededError(RuntimeError):
    """A sweep was refused: ``estimated_cells``, a count of its cells that
    stopped once it passed the budget, exceeds ``budget``."""

    def __init__(self, estimated_cells: int, budget: int):
        self.estimated_cells = estimated_cells
        self.budget = budget
        super().__init__(
            f"sweep refused: at least {estimated_cells} (k,l)-cells "
            f"exceed the budget {budget}"
        )


class ConsistencyError(RuntimeError):
    """An internal cross-check failed (roundoff blew past its tolerance)."""


def rounded_counts(raw, what: str):
    """``raw`` (an array or a float) rounded to integers, half to even.

    Raises ConsistencyError naming ``what`` at a drift of ``ROUNDING_GUARD``
    or more, and at a NaN or infinite entry.
    """
    rounded = np.rint(raw)
    drift = float(np.max(np.abs(raw - rounded)))
    if not drift < ROUNDING_GUARD:  # NaN and infinity fail this too
        raise ConsistencyError(f"{what} drifted {drift:.3e} from integrality")
    return rounded
