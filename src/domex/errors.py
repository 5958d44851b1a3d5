"""Exception types shared across the package: one class per CLI exit code."""


class DomexError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(DomexError, ValueError):
    """Invalid run configuration or hyperparameter value (exit code 2)."""


class InputError(DomexError, ValueError):
    """Malformed, unreadable or inconsistent input: files, shapes, indices,
    empty sets (exit code 3). A file's error names its 1-based line when known."""


class NumericError(DomexError, ArithmeticError):
    """Non-finite values appeared where finite ones are required (exit code 4)."""
