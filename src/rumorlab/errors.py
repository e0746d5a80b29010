"""Exception types and the argument checks shared across the package.

This module imports nothing from the package, so every layer can use it.
"""


class NumericFault(RuntimeError):
    """A numeric routine failed to converge or violated its own invariant.

    Raised only for faults that must not occur on valid inputs (e.g. a root
    finder exhausting its iteration cap); callers may map it to a dedicated
    process exit code.
    """


def check_at_least(name: str, value, minimum) -> None:
    """Raise ValueError unless ``value >= minimum``."""
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def check_unit_interval(name: str, value, open_low: bool = False) -> None:
    """Raise ValueError unless ``value`` lies in [0, 1], or in (0, 1] when
    ``open_low``.  NaN lies in neither."""
    if not (0 < value if open_low else 0 <= value) or not value <= 1:
        raise ValueError(f"{name} must lie in {'(' if open_low else '['}0, 1], got {value}")


def _check_d(d: int, minimum: int = 2) -> None:
    check_at_least("d", d, minimum)


def _check_p(p) -> None:
    check_unit_interval("p", p, open_low=True)
