"""Exception types shared across the package, and the check of count
arguments that raises one."""

import numbers


class PreconditionError(ValueError):
    """An operation was called outside its stated domain."""


class NumericalError(RuntimeError):
    """A numerical routine failed to reach its accuracy target."""


def require_count(value, name: str, least: int = 1) -> None:
    """Raise PreconditionError unless the argument `name` is an int, not
    a bool, of at least `least`; the one check of every count argument."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise PreconditionError(f"{name} must be an int of at least {least}, not {value!r}")
