"""Exception hierarchy shared across the package."""


class CovloopError(Exception):
    """Base class for every error raised by this package."""


class ContractViolation(CovloopError):
    """An argument or state violated a documented precondition."""


class UnsupportedLanguage(CovloopError):
    """Target file extension maps to no supported language."""


class ParseError(CovloopError):
    """A coverage report or export did not match its expected format."""


class BackendError(CovloopError):
    """Base class for completion backend failures."""


class MalformedResponse(BackendError):
    """Backend kept returning output that failed schema validation."""


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


class CompileError(CovloopError):
    """Target compilation failed; message carries the diagnostics."""


class MissingToolchain(CovloopError):
    """A required external tool (compiler, gcov, interpreter) is absent."""


class SpawnError(CovloopError):
    """The target process could not be started."""


class ToolInvocationError(CovloopError):
    """An external coverage tool exited abnormally; message carries stderr."""
