"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Operand dimensions are inconsistent."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class NotSpdError(ArithmeticError):
    """Cholesky factorization hit a non-positive pivot."""

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = pivot_index
        self.pivot_value = pivot_value
        super().__init__(
            f"matrix is not positive definite: pivot {pivot_index} "
            f"has value {pivot_value:.6e}"
        )


class ConfigError(ValueError):
    """Invalid run configuration."""


class DataFormatError(ValueError):
    """Malformed dataset file."""
