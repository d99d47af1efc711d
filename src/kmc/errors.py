"""Exception types shared across the package."""


class KmcError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(KmcError):
    """Malformed diagram text.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DiagramError(KmcError):
    """Structurally invalid diagram or an invalid handle into one."""


class LimitError(KmcError):
    """An enumeration limit (crossing count) was exceeded."""


class UnsupportedFieldError(KmcError):
    """The requested coefficient field is not available for this diagram."""


class TableError(KmcError):
    """A homology table is empty, malformed, or inconsistent with its
    claimed crossing count."""


class InvariantError(KmcError):
    """A computed result breaks one of the paper's theorems, so no
    verdict may rest on it."""
