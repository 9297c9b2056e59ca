"""Shared exception types."""


class DomainError(ValueError):
    """An argument is outside the mathematical domain of the operation."""


class MalformedWordError(DomainError):
    """A word contains a zero letter or a letter index out of range."""


class NotFillableError(DomainError):
    """An abstract diagram contains an edge decorated twice by one abstract
    letter, or by cyclically consecutive letters of one relator reading it in
    opposite directions."""


class FeasibilityError(RuntimeError):
    """The requested enumeration would exceed the configured work limit."""

    def __init__(self, message: str, estimate=None):
        super().__init__(message)
        self.estimate = estimate
