"""Exception types shared across the toolkit.

Each class states what the command line makes of it: `label` opens the
stderr line and `exit_code` is the status it exits with.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package.  Unless a
    subclass says otherwise, the command line reports it as a
    precondition violation."""

    label = "precondition error"
    exit_code = 3


class ArityMismatchError(ToolkitError):
    """Operands live over different alphabets, or a symbol is out of range."""


class ParseError(ToolkitError):
    """A literal could not be parsed; carries the offending position."""

    label = "parse error"
    exit_code = 2

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PreconditionError(ToolkitError):
    """An operation was invoked outside its domain of validity."""


class VerificationError(ToolkitError):
    """A certificate failed to re-evaluate to its claimed target."""

    label = "verification failed"
    exit_code = 4
