"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: argument problems exit 1, data
problems exit 2 (a file-format problem is a data problem that knows its
byte offset), numerical failures exit 3. Each class carries its
``(label, exit code)`` pair as ``exit_status``.
"""


class PodsnapError(Exception):
    """Base class for all errors raised by this package."""

    exit_status = ("data", 2)


class ArgumentError(PodsnapError, ValueError):
    """Invalid argument or configuration value."""

    exit_status = ("usage", 1)


class DataError(PodsnapError, ValueError):
    """Input data violates a contract (shapes, non-finite entries, bad
    values, a spectrum without energy)."""


class FormatError(DataError):
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
