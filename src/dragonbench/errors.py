"""Exception types shared across the package."""


class ShapeError(ValueError):
    """An array argument has the wrong shape or an inconsistent dimension."""


class ConfigError(ValueError):
    """A configuration value is out of its documented range."""


class NumericDomainError(ValueError):
    """An input sits outside the numeric domain of an operation (e.g. g at 0 or 1)."""


class NumericError(ArithmeticError):
    """A computation produced a non-finite value."""

    def __init__(self, message: str, value=None):
        super().__init__(message)
        self.value = value


class TrainingDivergedError(RuntimeError):
    """Training produced a non-finite loss."""

    def __init__(self, epoch: int, term: str, value: float):
        super().__init__(
            f"training diverged at epoch {epoch}: {term} became {value!r}"
        )
        self.epoch = epoch
        self.term = term
        self.value = value

    def __reduce__(self):  # pickles, so a scorer process can send it
        return type(self), (self.epoch, self.term, self.value)


class EstimationError(RuntimeError):
    """An estimator cannot be evaluated (e.g. every row was trimmed away)."""


class UsageError(ValueError):
    """An operation was applied to a model that does not support it."""


class IngestionError(ValueError):
    """A data file is malformed.  Carries 1-based line numbers of bad rows."""

    def __init__(self, message: str, lines=()):
        super().__init__(message)
        self.lines = tuple(lines)


PACKAGE_ERRORS = (ShapeError, ConfigError, NumericDomainError, NumericError,  # all of the above
                  TrainingDivergedError, EstimationError, UsageError, IngestionError)
