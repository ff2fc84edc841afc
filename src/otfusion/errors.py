"""Exception types shared across the package, and the count check that
raises one."""

import numbers


class DimensionError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ParameterError(ValueError):
    """An argument is outside its valid range."""


class InputError(ValueError):
    """Input data violates a precondition (empty, bad marginals, ...)."""


class ContractViolationError(RuntimeError):
    """A caller-supplied callable broke its stated contract."""


class NumericalError(RuntimeError):
    """A numerical failure (NaN/Inf loss, divergence) aborted a computation."""


def require_count(name: str, value) -> None:
    """A size, grid or iteration count must be an integer >= 1: a fraction
    would build a wrong grid or fail inside numpy, and NaN fails too."""
    if not (isinstance(value, numbers.Integral) and value >= 1):
        raise ParameterError(f"{name} must be >= 1 and an integer, got {value!r}")
