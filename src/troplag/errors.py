"""Shared exception base for the package, and the CLI's exit codes."""

PASS, FAIL, INPUT_ERROR, INTERNAL_ERROR = 0, 1, 2, 3
BROKEN_PIPE = 141


class TroplagError(Exception):
    """Base class for every error raised by troplag."""
