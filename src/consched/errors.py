"""Exception taxonomy shared across the simulator.

The CLI maps these onto distinct exit codes: usage errors -> 2,
file/parse errors -> 3, runtime errors -> 4.
"""


class ConschedError(Exception):
    """Base class for all simulator errors."""


class InvalidDemandError(ConschedError):
    """GPU demand is non-positive or exceeds cluster capacity."""


class InvalidPlacementError(ConschedError):
    """Placement references unknown nodes or violates shape rules."""


class AllocationConflictError(ConschedError):
    """Placement would overlap slots already held by another job."""


class NotFoundError(ConschedError):
    """Referenced job is not present in the cluster/state."""


class ConfigError(ConschedError):
    """Invalid or missing configuration value."""


class TraceParseError(ConschedError):
    """Malformed trace or CS-table file; carries a line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(ConschedError):
    """Unreadable, truncated, or incompatible policy checkpoint."""


class NonFiniteLossError(ConschedError):
    """Training produced a NaN/inf loss; carries a diagnostic dump."""

    def __init__(self, message, diagnostics=None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UsageError(ConschedError):
    """Bad command-line arguments or config values (exit code 2)."""
