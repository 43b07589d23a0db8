"""Classical emulation of connected-moments expansions (CMX and PDS) for
qubit-encoded many-body Hamiltonians."""

from .cmx import CmxResult, SingularityFinding, cmx_cioslowski, cmx_knowles
from .errors import (
    CapacityError,
    CmxlabError,
    ContractViolationError,
    DegenerateRootsError,
    DimensionMismatchError,
    HamiltonianParseError,
    InsufficientMomentsError,
    SingularScanError,
    UsageError,
)
from .methods import MethodSpec, evaluate_method, evaluate_rows, parse_method, parse_method_list
from .models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    load_h2_pes,
    siam_fci_energy,
    siam_hamiltonian,
)
from .moments import (
    MomentTable,
    PauliExpectationCache,
    hamiltonian_powers,
    krylov_rank,
    lanczos,
    raw_moments_dense,
    raw_moments_pauli,
)
from .noise import (
    NoiseModel,
    SampledStrings,
    ShotEstimate,
    hadamard_test_estimate,
    noisy_moments,
)
from .pauli import (
    PauliString,
    PauliSum,
    parse_pauli_sum,
    serialize_pauli_sum,
)
from .pds import PdsResult, build_pds_system, solve_pds
from .statevector import (
    SpectrumResult,
    StateVector,
    apply_generator_rotation,
    apply_pauli,
    apply_pauli_sum,
    basis_state,
    dense_matrix,
    exact_diagonalize,
    expectation,
    fidelity,
    pauli_expectation,
)
from .variational import (
    DeviationReport,
    ScanResult,
    default_theta_grid,
    deviation_report,
    energy_vs_theta,
)

__version__ = "0.1.0"
