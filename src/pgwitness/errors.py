"""Shared exception types.

Each type carries the process exit code the CLI returns for it
(``exit_code``): parse and input problems exit with 2, resource caps
with 3, and internal invariant violations with 4.
"""

from __future__ import annotations


class PgwitnessError(Exception):
    """Base class for all package-specific errors."""

    exit_code = 2


class GameParseError(PgwitnessError):
    """Malformed game file; carries the 1-based line number if known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ResourceCapError(PgwitnessError):
    """A configured size cap (statespace, product, prefix length) was hit."""

    exit_code = 3


class InternalInvariantError(PgwitnessError):
    """A condition the implementation guarantees was found violated."""

    exit_code = 4
