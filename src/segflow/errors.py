"""Exception hierarchy shared across the package."""

__all__ = [
    "SegflowError",
    "NumericBlowupError",
    "EllipticityViolationError",
    "CapacityError",
    "ShapeError",
    "EstimatorInconsistencyError",
    "ConfigError",
]


def _rebuild(cls, args, state):
    exc = cls.__new__(cls, *args)
    exc.__dict__.update(state)
    return exc


class SegflowError(Exception):
    """Base class for all package-specific errors.

    Pickles with its type, message and attributes (``time``,
    ``sample_index``, ``segment``, ``key``), so an error raised in a worker
    process reaches the caller whole: the default reduction would call
    ``__init__`` with ``args``, which holds only the formatted message.
    """

    def __reduce__(self):
        return _rebuild, (type(self), self.args, self.__dict__)


class NumericBlowupError(SegflowError):
    """Raised when drift/diffusion or the integrated state turns non-finite.

    Carries the simulation time at which the first non-finite value appeared.
    """

    def __init__(self, message, time):
        super().__init__(f"{message} (at t={time:g})")
        self.time = float(time)


class EllipticityViolationError(SegflowError):
    """Raised when a sampled diffusion matrix is singular."""

    def __init__(self, message, sample_index, segment=None):
        super().__init__(message)
        self.sample_index = int(sample_index)
        self.segment = segment


class CapacityError(SegflowError):
    """Raised when an exact solver is asked for more atoms than its cap."""


class ShapeError(SegflowError):
    """Raised when segment collections have incompatible grids or dims."""


class EstimatorInconsistencyError(SegflowError):
    """Raised when an estimate contradicts a structural constraint."""


class ConfigError(SegflowError):
    """Raised on invalid experiment configuration files."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key
