"""Exception types shared across the package."""


class UsageError(ValueError):
    """Caller violated a precondition (bad shapes, mismatched contexts,
    parameters outside the family an operation is built for, ...)."""


class DomainError(ValueError):
    """Input is outside the mathematical domain of the operation."""
