"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all sscert errors."""


class DomainError(Error):
    """A precondition on the input ``field`` (entry ``index``) was violated."""

    def __init__(self, message, field=None, index=None):
        super().__init__(message)
        self.field, self.index = field, index


class CapacityError(Error):
    """Input exceeds a desk-scale enumeration or solver cap."""


class InvariantViolation(Error):
    """A guaranteed internal invariant failed; indicates a bug."""


class ParseError(Error):
    """A document could not be parsed; carries a location string."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)

