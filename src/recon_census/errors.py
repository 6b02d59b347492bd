"""Exception types shared across the package."""


class ContradictionError(RuntimeError):
    """An identity the construction guarantees failed to verify.

    Raised by self-checking operations (search witness verification, the
    point-1 level identity, the half-swap identity, the inductive
    non-isomorphism argument) when a
    check that must hold by construction does not.  Seeing this error
    means a bug, not bad input.
    """


class BudgetExhausted(RuntimeError):
    """A budgeted search ran out of nodes before reaching a verdict."""
