"""Exception types shared across the package, and the crossing limits
that raise ``LimitError``."""

import os

ENV_LIMIT = "KMC_MAX_CROSSINGS"


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


def resolve_limit(explicit: int | None, default: int) -> int:
    """The explicit limit, else the KMC_MAX_CROSSINGS environment value,
    else default.  Either given limit must be a positive integer, as
    ``--max-crossings`` must."""
    if explicit is not None:
        if explicit <= 0:
            raise LimitError(f"bad max_crossings value {explicit!r}")
        return explicit
    env = os.environ.get(ENV_LIMIT)
    if env is None:
        return default
    try:
        limit = int(env)
    except ValueError:
        limit = 0
    if limit <= 0:
        raise LimitError(f"bad {ENV_LIMIT} value {env!r}")
    return limit


class UnsupportedFieldError(KmcError):
    """The requested coefficient field is not available for this diagram."""


class TableError(KmcError):
    """A homology table is empty, malformed, or inconsistent with its
    claimed crossing count."""


class InvariantError(KmcError):
    """A computed result breaks one of the paper's theorems, so no
    verdict may rest on it."""
