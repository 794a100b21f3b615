"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: argument problems exit 1, data and
file-format problems exit 2, numerical failures exit 3. Each class
carries its ``(label, exit code)`` pair as ``exit_status``.
"""


class PodsnapError(Exception):
    """Base class for all errors raised by this package."""

    exit_status = ("data", 2)


class ArgumentError(PodsnapError, ValueError):
    """Invalid argument or configuration value."""

    exit_status = ("usage", 1)


class DimensionError(PodsnapError, ValueError):
    """Array shapes or lengths are inconsistent."""


class DataError(PodsnapError, ValueError):
    """Input data violates a contract (non-finite entries, bad values)."""


class FormatError(PodsnapError, ValueError):
    """A file does not conform to its declared format.

    Carries the byte offset at which decoding failed, when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericalError(PodsnapError, RuntimeError):
    """A numerical method failed to converge or produced invalid results."""

    exit_status = ("numerical", 3)

    def __init__(self, message, residual=None):
        if residual is not None:
            message = f"{message}; residual={residual:.3e}"
        super().__init__(message)
        self.residual = residual


class StabilityError(PodsnapError, RuntimeError):
    """A timestep violates the stability bound of the chosen scheme."""

    exit_status = ("numerical", 3)


class DegenerateSpectrumError(PodsnapError, ValueError):
    """An operation on a spectrum is undefined (all-zero or empty data)."""
