"""Exception hierarchy shared across the package."""


class GenrepError(Exception):
    """Base class for all genrep errors."""


class ValidationError(GenrepError):
    """Malformed or inconsistent input data."""


class UnrealizableError(GenrepError):
    """Operation requires a realizable semisimple sequence."""


class EnumerationCapError(GenrepError):
    """An enumeration would exceed the configured cap."""

    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or f"enumeration exceeds cap of {cap}")


class MethodDisagreementError(GenrepError):
    """Two independent computations of the same invariant disagree.

    Signals a degenerate random evaluation; retry with a fresh seed.
    """


class SeedStabilityError(GenrepError):
    """A seeded invariant differed across seeds; never averaged."""
