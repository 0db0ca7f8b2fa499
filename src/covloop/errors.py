"""Exception hierarchy shared across the package.

A class lives here only while some module catches it by name. Any other
failure raises a plain CovloopError whose message says what failed.
"""


class CovloopError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(CovloopError):
    """An argument or state violated a documented precondition."""


class BackendError(CovloopError):
    """A completion backend failed, or kept returning output that failed
    schema validation."""


# Seconds before a retry when the error came with no readable Retry-After.
RETRY_AFTER_DEFAULT = 1.0


class TransportError(BackendError):
    """Network-level failure talking to an HTTP completion endpoint. A
    retryable one, a failed connection, a 429 or a 5xx, may pass if sent
    again after `retry_after` seconds."""

    def __init__(self, message: str, retryable: bool = False,
                 retry_after: float = RETRY_AFTER_DEFAULT):
        super().__init__(message)
        self.retryable = retryable
        self.retry_after = retry_after


class SpawnError(CovloopError):
    """The target process could not be started."""
