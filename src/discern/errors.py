"""Exception types shared across the package."""


class ParseError(Exception):
    """Raised when an input document is not structurally valid.

    ``path`` points at the offending location, e.g. ``"classes[1].profile"``.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class ValidationError(Exception):
    """Raised when a structurally valid document violates a scheme invariant.

    ``path`` points at the offending location; ``message`` is the text
    without it.
    """

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.message, self.path = message, path


class BarrierError(Exception):
    """Raised when an operation requires profile-injective classes but the
    scheme has colliding profiles (an information barrier)."""


class LimitError(Exception):
    """Raised when an exact algorithm is asked to run above its configured
    instance-size limit."""


class ConfigError(Exception):
    """Raised for invalid simulation configuration values."""


class EmptyInputError(Exception):
    """Raised when an operation requires a nonempty collection."""
