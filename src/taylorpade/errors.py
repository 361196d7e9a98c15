"""The exception type shared across the package."""


class UsageError(ValueError):
    """Caller violated a precondition (bad shapes, mismatched contexts,
    parameters outside the family an operation is built for, input outside
    the mathematical domain of the operation, ...)."""
