"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A distribution or operation received an invalid parameter."""


class OutOfSupportError(ValueError):
    """A density was evaluated at a point outside the distribution support."""


class ShapeMismatchError(ValueError):
    """Inputs that must be aligned (lengths, index ranges) are not."""


class TimeOrderError(ValueError):
    """Timestamps violate the required ordering."""


class TimestampParseError(ValueError):
    """A timestamp string does not match its declared format."""


class CorpusParseError(ValueError):
    """Structurally malformed corpus input.  Carries a byte offset."""

    def __init__(self, message, offset=None):
        super().__init__(message)
        self.offset = offset


class ConfigurationError(ValueError):
    """A configuration value is outside its legal range."""


class ConvergenceError(RuntimeError):
    """An iterative fit ran out of iterations.  Carries the last iterate."""

    def __init__(self, message, last=None):
        super().__init__(message)
        self.last = last


class NumericalError(RuntimeError):
    """A numerical quantity became non-finite.  Carries the sweep index."""

    def __init__(self, message, sweep=None):
        super().__init__(message)
        self.sweep = sweep


class LifecycleProtocolError(RuntimeError):
    """A lifecycle event arrived in a state where it is not allowed."""
