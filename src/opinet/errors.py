"""Error types shared across the package, and the integer check of the
configuration keys."""

import numbers


class ConfigError(ValueError):
    """Invalid configuration or violated precondition, caught before stepping."""


class SimulationError(RuntimeError):
    """Failure while a computation is underway (solvers, fits, diagnostics)."""


def check_integer(key, value):
    """Refuse a value of key that the INI reader's int() could not give:
    anything but an integer, numpy's included."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError("%s: must be an integer, got %r" % (key, value))
