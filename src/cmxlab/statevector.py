"""Dense statevector kernel: trial-state preparation, Pauli application,
expectation values, single-generator rotations, and exact diagonalization.

Amplitude ordering: qubit 0 is the leftmost label character and the most
significant index bit, so basis_state("01") puts amplitude 1 at index 0b01.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import CapacityError, ContractViolationError, DimensionMismatchError
from .pauli import PauliString, PauliSum

DENSE_QUBIT_LIMIT = 14

_NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex amplitudes over the 2**n computational basis states."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        dim = 1 << self.n_qubits
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (dim,):
            raise DimensionMismatchError(
                f"expected {dim} amplitudes for {self.n_qubits} qubits, got {amps.shape}"
            )
        amps = amps.copy()
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class SpectrumResult:
    """Full real spectrum (ascending) and the normalized ground vector."""

    eigenvalues: np.ndarray
    ground_vector: StateVector

    @property
    def ground_energy(self) -> float:
        return float(self.eigenvalues[0])


def basis_state(bits: str) -> StateVector:
    """Computational basis state for a bitstring, e.g. "0110" (qubit 0 first)."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValueError(f"bitstring must be non-empty over {{0,1}}, got {bits!r}")
    n = len(bits)
    amps = np.zeros(1 << n, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(n, amps)


@cache
def _index_tables(n: int) -> tuple[np.ndarray, tuple[int, ...], np.ndarray, np.ndarray]:
    """Tables for n-qubit amplitude indices b = 0..2**n-1: the indices
    themselves; the n-bit reversal of every mask, which maps a qubit-indexed
    mask (bit q = qubit q) onto amplitude-index bits (qubit q = bit n-1-q);
    and the Walsh parity popcount(b) & 1 of every index, as a flag and as
    the sign (-1)**popcount(b)."""
    index = np.arange(1 << n)
    reversal = np.zeros_like(index)
    for q in range(n):
        reversal |= (index >> q & 1) << (n - 1 - q)
    parity = (np.bitwise_count(index) & 1).astype(bool)
    sign = np.where(parity, -1.0, 1.0)
    for table in (index, parity, sign):
        table.setflags(write=False)
    return index, tuple(reversal.tolist()), parity, sign


def _check_sizes(p: PauliString, s: StateVector) -> None:
    if p.n_qubits != s.n_qubits:
        raise DimensionMismatchError(
            f"string acts on {p.n_qubits} qubits, state on {s.n_qubits}"
        )


def _pauli_image(x_mask: int, z_mask: int, s: StateVector) -> np.ndarray:
    """Amplitudes of P|s> for the string with these masks: an index
    permutation with unit phase factors."""
    index, reversal, parity, _ = _index_tables(s.n_qubits)
    src = index ^ reversal[x_mask]
    # P(x,z)|b> = i^(x&z) (-1)^(z&b) |b^x>, accumulated over qubits
    global_phase = 1j ** ((x_mask & z_mask).bit_count() % 4)
    flip = parity[src & reversal[z_mask]]
    return np.where(flip, -global_phase, global_phase) * s.amplitudes[src]


def apply_pauli(p: PauliString, s: StateVector) -> StateVector:
    """Exact p|s>: an index permutation with unit phase factors."""
    _check_sizes(p, s)
    return StateVector(s.n_qubits, _pauli_image(p.x_mask, p.z_mask, s))


def apply_pauli_sum(h: PauliSum, s: StateVector) -> StateVector:
    """H|s> accumulated term by term (no normalization)."""
    if h.n_qubits != s.n_qubits:
        raise DimensionMismatchError("operator and state sizes differ")
    acc = np.zeros_like(s.amplitudes)
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        acc = acc + c * _pauli_image(x, z, s)
    return StateVector(s.n_qubits, acc)


def pauli_expectation(p: PauliString, s: StateVector) -> float:
    """<s|P|s> for a Hermitian string; always real in [-1, 1].

    One vdot of the amplitudes against a gathered copy of them: P's bit flip
    permutes the indices and its Z part flips the sign of odd-parity ones.
    The phase i**(number of Y sites) then picks the part of the vdot that is
    the real expectation.  Moment assembly calls this once per distinct
    string, so its call count is the number of Hadamard-test circuits.
    """
    _check_sizes(p, s)
    index, reversal, _, sign = _index_tables(s.n_qubits)
    amps = s.amplitudes
    src = index ^ reversal[p.x_mask]
    # a Python complex, so picking the part costs no numpy scalar operations
    value = complex(np.vdot(amps, amps[src] * sign[src & reversal[p.z_mask]]))
    y_sites = (p.x_mask & p.z_mask).bit_count()
    part = (value.real, -value.imag, -value.real, value.imag)[y_sites % 4]
    # + 0.0 turns a negated zero back into the 0.0 the phased vdot gives
    return part + 0.0


def expectation(h: PauliSum, s: StateVector) -> float:
    """<s|H|s> for a Hermitian sum; the imaginary residual is checked."""
    if not h.is_hermitian():
        raise ContractViolationError("expectation requires a Hermitian sum")
    val = complex(np.vdot(s.amplitudes, apply_pauli_sum(h, s).amplitudes))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ContractViolationError(f"imaginary residual {val.imag:g} too large")
    return float(val.real)


def apply_generator_rotation(theta: float, g: PauliString, s: StateVector) -> StateVector:
    """exp(i*theta*G)|s> = (cos(theta) I + i sin(theta) G)|s> for a
    generator string G, using G**2 = I."""
    _check_sizes(g, s)
    image = _pauli_image(g.x_mask, g.z_mask, s)
    rotated = np.cos(theta) * s.amplitudes + 1j * np.sin(theta) * image
    return StateVector(s.n_qubits, rotated)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2 for normalized states."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError("states act on different qubit counts")
    for s in (a, b):
        if abs(s.norm - 1.0) > _NORM_TOL:
            raise ContractViolationError(f"state norm {s.norm:.12g} is not 1")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2**n x 2**n matrix of a sum.

    Each string is a signed permutation, so the matrix is filled column-wise
    in O(2**n) per term instead of building kron chains.
    """
    n = h.n_qubits
    if n > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n} qubits exceeds the dense limit of {DENSE_QUBIT_LIMIT}")
    cols, reversal, _, sign = _index_tables(n)
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        phase = c * 1j ** ((x & z).bit_count() % 4)
        out[cols ^ reversal[x], cols] += phase * sign[cols & reversal[z]]
    return out


def exact_diagonalize(h: PauliSum) -> SpectrumResult:
    """Full spectrum of the dense Hermitian matrix, ascending."""
    if not h.is_hermitian():
        raise ContractViolationError("exact_diagonalize requires a Hermitian sum")
    mat = dense_matrix(h)
    eigenvalues, vectors = np.linalg.eigh(mat)
    ground = StateVector(h.n_qubits, vectors[:, 0])
    eigenvalues = eigenvalues.copy()
    eigenvalues.setflags(write=False)
    return SpectrumResult(eigenvalues, ground)
