"""Exception types shared across the package."""


class DivergenceError(RuntimeError):
    """An iteration failed to reach the requested tolerance.

    Carries the last iterate and its update norm so callers can inspect
    the state or restart from it.  ``level`` is filled in by study drivers
    to identify the mesh on which the solve failed.
    """

    def __init__(self, message, last_iterate=None, update_norm=None, level=None):
        super().__init__(message)
        self.last_iterate = last_iterate
        self.update_norm = update_norm
        self.level = level


class SingularLinearizationError(RuntimeError):
    """The linearized system is numerically singular.

    Usually signals that 1 is close to an eigenvalue of the derivative of
    the integral operator at the current iterate.  ``level`` is filled in
    as for DivergenceError.
    """

    level = None


class MeshMismatchError(ValueError):
    """Partition-point data does not live on compatible meshes."""


class MissingDerivativeError(Exception):
    """The kernel does not provide the u-derivative pieces required here."""


class ConfigError(ValueError):
    """A study or CLI configuration is invalid."""
