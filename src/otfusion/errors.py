"""Exception types shared across the package, and the count and seed
checks that raise one."""

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
    would build a wrong grid or fail inside numpy, and NaN and bools fail too."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 1):
        raise ParameterError(f"{name} must be >= 1 and an integer, got {value!r}")


def require_seed(name: str, value) -> None:
    """A seed must be an integer >= 0 (a bool is not one), as numpy's
    ``SeedSequence`` takes it; a negative one would fail deep inside numpy."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= 0):
        raise ParameterError(f"{name} must be an integer >= 0, got {value!r}")
