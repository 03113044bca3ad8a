"""Exception types shared across the package; numeric failures are NumericErrors."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values or could not be carried out."""


class TrainingError(NumericError):
    """Numeric or factorization failure inside the training loop."""

    def __init__(self, iteration: int, cause: Exception):
        self.iteration = iteration
        super().__init__(f"iteration {iteration}: {cause}")


class ConfigError(ValueError):
    """Invalid run configuration."""


class DataFormatError(ValueError):
    """Malformed dataset file."""


class OutputError(OSError):
    """Writing the metrics file or standard output failed."""
