"""Exception types shared across the package."""


class CmxlabError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatchError(CmxlabError, ValueError):
    """Operands act on different numbers of qubits."""


class CapacityError(CmxlabError, ValueError):
    """Requested operation exceeds a qubit limit: the dense limit, or the
    64-bit mask width of a PauliSum."""


class HamiltonianParseError(CmxlabError, ValueError):
    """Malformed Hamiltonian text; carries the offending line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class ContractViolationError(CmxlabError, ValueError):
    """An input violates a documented precondition (non-Hermitian sum,
    unnormalized state, non-finite moment, ...)."""


class InsufficientMomentsError(CmxlabError, ValueError):
    """Fewer moments available than the requested expansion order needs."""


class DegenerateRootsError(CmxlabError, RuntimeError):
    """Root extraction produced no usable real roots."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class SingularScanError(CmxlabError, RuntimeError):
    """Every point of a parameter scan was singular; carries the sweep."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class UsageError(CmxlabError, ValueError):
    """Invalid command-line or run configuration."""
