"""Exception hierarchy shared across the package."""


class TwinObsError(Exception):
    """Base class for all errors raised by this package."""


class NonHermitianError(TwinObsError):
    pass


class ConvergenceFailureError(TwinObsError):
    pass


class DimensionMismatchError(TwinObsError):
    pass


class NotPositiveError(TwinObsError):
    pass


class NotNormalizedError(TwinObsError):
    pass


class WeightError(TwinObsError):
    pass


class NotProjectorError(TwinObsError):
    pass


class NotPureError(TwinObsError):
    pass


class NotTwinPairError(TwinObsError, ValueError):
    """A pair used where a twin pair of the state is required; residual
    is the twin test's witness, when the raiser has one."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NotReducibleError(TwinObsError):
    pass


class SpectraMismatchError(TwinObsError):
    pass


class DegenerateSpectrumCollisionError(TwinObsError):
    pass


class NotSymmetricError(TwinObsError):
    pass


class SparsityViolationError(TwinObsError):
    pass


class OffDiagonalLeakError(TwinObsError):
    pass


class UnsupportedSpinError(TwinObsError):
    pass


class InputError(TwinObsError):
    """Malformed or inconsistent user input (files, CLI arguments)."""
