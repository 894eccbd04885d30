"""Exception types shared across the package."""


class WorldsheetError(Exception):
    """Base class for package errors."""


class PreconditionError(WorldsheetError):
    """An operation was called on data violating its contract."""


class UnderResolvedError(WorldsheetError):
    """A numerical result is unreliable at the current resolution."""
