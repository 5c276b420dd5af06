"""Exception types shared across the toolkit."""


class QubitkitError(Exception):
    """Base class for all toolkit errors."""


class CapacityError(QubitkitError):
    """Requested qubit count exceeds the simulator or backend cap."""


class UnknownBackendError(QubitkitError):
    """No backend registered under the requested name."""


class ValidationError(QubitkitError, ValueError):
    """A user-supplied parameter failed validation.

    The message always names the offending parameter and the violated
    constraint, so front-ends can show it verbatim. It is also a
    ``ValueError``, so callers that catch bad values generically still do.
    """

    def __init__(self, param: str, message: str):
        self.param = param
        super().__init__(f"parameter '{param}': {message}")


class KeyTooShortError(QubitkitError):
    """One-time-pad key shorter than the message it should encrypt."""
