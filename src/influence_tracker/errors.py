"""Exception types shared across the package.

The CLI maps these onto exit codes: dataset problems (parsing, lookups)
exit with 2, usage problems with 1, anything unexpected with 3.
"""

from __future__ import annotations


class InfluenceTrackerError(Exception):
    """Base class for all errors raised by this package."""


class ClockSkew(InfluenceTrackerError):
    """A tweet in the window is newer than the evaluation instant."""


class DatasetError(InfluenceTrackerError):
    """Base class for dataset-file, lookup and too-large-network failures (exit code 2)."""


class ParseError(DatasetError):
    """A dataset line could not be parsed or violates a record invariant."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnknownAccount(DatasetError):
    """An account_id or handle does not resolve in the dataset."""
