"""Exception hierarchy shared across the library."""


class SelfLinkError(Exception):
    """Base class for all library errors."""


class UnknownGenerator(SelfLinkError):
    pass


class SpecMismatch(SelfLinkError):
    pass


class IdentityInput(SelfLinkError):
    pass


class NotInCentralizer(SelfLinkError):
    pass


class EndpointMismatch(SelfLinkError):
    pass


class LatitudeMismatch(SelfLinkError):
    pass


class NotSelfTrace(SelfLinkError):
    pass


class NonVanishingLinking(SelfLinkError):
    pass


class DimensionMismatch(SelfLinkError):
    pass


class ParseError(SelfLinkError):
    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}" + (f", col {column}" if column is not None else "") + f": {message}"
        super().__init__(message)


class UnresolvedReference(SelfLinkError):
    pass


class InvariantViolation(SelfLinkError):
    pass
