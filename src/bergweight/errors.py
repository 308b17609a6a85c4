"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class QuadratureError(ArithmeticError):
    """A numerical integration failed to converge or left double precision.

    Carries ``residual``, the estimated unresolved mass, when available.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConfigError(ValueError):
    """A run configuration is malformed; ``line`` and ``key`` locate the fault."""

    def __init__(self, message, line=None, key=None):
        self.reason = message
        loc = []
        if line is not None:
            loc.append(f"line {line}")
        if key is not None:
            loc.append(f"key {key!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.line = line
        self.key = key


class ResourceError(RuntimeError):
    """A request would exceed the memory or size budget."""
