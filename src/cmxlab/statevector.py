"""Dense statevector kernel: trial-state preparation, Pauli application,
expectation values, single-generator rotations, and exact diagonalization.

Amplitude ordering: qubit 0 is the leftmost label character and the most
significant index bit, so basis_state("01") puts amplitude 1 at index 0b01.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import CapacityError, ContractViolationError, DimensionMismatchError
from .pauli import PauliString, PauliSum

DENSE_QUBIT_LIMIT = 14

_NORM_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class StateVector:
    """Dense complex amplitudes over the 2**n computational basis states.

    A state with exactly one nonzero, finite amplitude is a computational
    basis state up to a phase and a weight; `basis_index` names it, and
    `pauli_expectation` then reads each string's value in O(1) from that
    index and the weight, without touching the amplitudes.  Both are found
    once per state, on first use.  Any other state keeps one slot,
    ``(x_mask, table)``: the values of every string with that X part,
    indexed by the string's z-mask, which `pauli_expectation` builds when
    asked for a new x-mask and replaces when the x-mask changes, so a state
    holds O(2**n) floats at most; it also keeps, once asked, the table of
    the x-masks it can see (see `visible_strings`).  The amplitudes are a
    read-only copy, so no cache can go stale.
    """

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

    @cached_property
    def norm(self) -> float:
        """The 2-norm of the amplitudes (see `scaled_norm`), taken once."""
        return scaled_norm(self.amplitudes)

    @cached_property
    def _basis(self) -> tuple[int, float] | None:
        """(k, <s|s>) when amplitude k is the only nonzero one and is
        finite, else None.  The weight is the vdot of the amplitudes, so a
        string's value has the bits of a vdot against P|s>."""
        amps = self.amplitudes
        support = np.flatnonzero(amps)
        if len(support) != 1 or not np.isfinite(amps[support[0]]):
            return None
        return int(support[0]), complex(np.vdot(amps, amps)).real

    @property
    def basis_index(self) -> int | None:
        """Index of the single nonzero amplitude of a computational basis
        state, or None when the state is not one."""
        basis = self._basis
        return None if basis is None else basis[0]

    @cached_property
    def _visible(self) -> np.ndarray:
        """Entry x_mask says whether some nonzero amplitude b has b ^ X
        nonzero too, X the x-mask's amplitude-index bits (see
        `visible_strings`).

        The count of such b is the XOR autocorrelation of the support
        indicator u: the Walsh-Hadamard transform of U**2, U the transform
        of u, is 2**n times it.  Both transforms take the Sylvester factors
        of `_walsh_table`.  Every value is an integer below 2**53 up to 17
        qubits, and the half-count threshold decides "count >= 1" beyond
        any rounding.
        """
        n = self.n_qubits
        hi = n // 2
        h_hi, h_lo = _sylvester(hi), _sylvester(n - hi)
        support = (self.amplitudes != 0).astype(complex).reshape(1 << hi, -1)
        spectrum = h_hi @ support @ h_lo
        counts = (h_hi @ (spectrum * spectrum) @ h_lo).real.ravel()
        table = (counts >= 0.5 * len(counts))[_index_tables(n)[1]]
        table.setflags(write=False)
        return table


def scaled_norm(v: np.ndarray) -> float:
    """The 2-norm of v, taken after scaling by the power of two nearest
    its largest modulus, so squaring cannot overflow; scaling by a power of
    two is exact, so the bits are those of np.linalg.norm wherever that
    does not overflow.  A norm past float64 is inf and a non-finite entry
    gives a non-finite norm, without warnings."""
    with np.errstate(over="ignore", invalid="ignore"):
        _, exponent = np.frexp(np.abs(v).max(initial=0.0))
        return float(np.ldexp(np.linalg.norm(v * np.ldexp(1.0, -exponent)), exponent))


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
def _index_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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
    for table in (index, reversal, parity, sign):
        table.setflags(write=False)
    return index, reversal, parity, sign


@cache
def _sylvester(k: int) -> np.ndarray:
    """The 2**k x 2**k Sylvester-Hadamard matrix (-1)**popcount(i & j),
    stored complex so the transform's products need no cast."""
    index = np.arange(1 << k)
    matrix = np.where(np.bitwise_count(index[:, None] & index) & 1, -1.0, 1.0).astype(complex)
    matrix.setflags(write=False)
    return matrix


def _walsh_table(s: StateVector, x_mask: int) -> np.ndarray:
    """<s|P|s> for every string P with this X part, indexed by the Z part's
    mask itself (bit q = qubit q).

    With X = reversal[x_mask] and f[b] = conj(a[b^X]) a[b], the string with
    Z part m has value Re(i**popcount(X & m) F[m]) for the Walsh-Hadamard
    transform F[m] = sum_b f[b] (-1)**popcount(b & m).  Index bits split into
    high and low halves, so F is two matrix products with Sylvester
    matrices, H_hi f H_lo, in O(2**n (2**hi + 2**lo)).  The table is then
    gathered once through the reversal, so entry z_mask is the value of the
    string with that Z part.
    """
    n = s.n_qubits
    index, reversal, _, _ = _index_tables(n)
    flip = reversal[x_mask]
    amps = s.amplitudes
    hi = n // 2
    # overflowing amplitudes give non-finite values, which MomentTable
    # rejects by order, as the Pauli and dense routes do
    with np.errstate(over="ignore", invalid="ignore"):
        f = amps[index ^ flip].conj() * amps
        walsh = (_sylvester(hi) @ f.reshape(1 << hi, -1) @ _sylvester(n - hi)).ravel()
        turns = np.bitwise_count(index & flip)  # Y sites of each string
        part = np.where(turns & 1, -walsh.imag, walsh.real)
        # + 0.0 turns a negated zero back into 0.0
        table = (np.where(turns & 2, -part, part) + 0.0)[reversal]
    table.setflags(write=False)
    return table


def check_sizes(op: PauliString | PauliSum, s: StateVector) -> None:
    """Raise DimensionMismatchError unless the string or sum acts on the
    state's qubit count."""
    if op.n_qubits != s.n_qubits:
        raise DimensionMismatchError(
            f"operator acts on {op.n_qubits} qubits, state on {s.n_qubits}"
        )


def _require_unit(s: StateVector, name: str) -> None:
    # a NaN norm fails the comparison too
    if not abs(s.norm - 1.0) <= _NORM_TOL:
        raise ContractViolationError(f"{name} norm {s.norm:.12g} is not 1")


def check_trial(h: PauliSum, s: StateVector) -> None:
    """The entry check of every moment route: DimensionMismatchError unless
    H acts on the state's qubit count, and ContractViolationError unless
    the trial has unit norm to within _NORM_TOL.  Every route reads
    K_0 = 1, so an unnormalised trial would give moments that are not
    <Phi|H^n|Phi>, and a different wrong answer on each route."""
    check_sizes(h, s)
    _require_unit(s, "trial")


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
    check_sizes(p, s)
    return StateVector(s.n_qubits, _pauli_image(p.x_mask, p.z_mask, s))


def apply_pauli_sum(h: PauliSum, s: StateVector) -> StateVector:
    """H|s> accumulated term by term (no normalization)."""
    check_sizes(h, s)
    acc = np.zeros_like(s.amplitudes)
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        acc = acc + c * _pauli_image(x, z, s)
    return StateVector(s.n_qubits, acc)


def pauli_expectation(x_mask: int, z_mask: int, s: StateVector) -> float:
    """<s|P|s> for the Hermitian string with these masks (bit q marks an X
    or Z part on qubit q, as in `PauliString`): real and at most <s|s> in
    magnitude, so within [-1, 1] for a unit-norm state but not for the
    unnormalised ones `apply_pauli_sum` returns.  Masks that reach past the
    state's qubits, negative ones included, raise DimensionMismatchError.

    The exact moment route calls this once per distinct string the trial
    can see (see `visible_strings`), straight from the power's mask arrays
    with no per-string object, so its call count is the number of
    Hadamard-test circuits.

    On a computational basis state |k> of weight w (see
    `StateVector.basis_index`) the value costs O(1): 0.0 when P flips any
    bit, else +-w by the parity of k under P's Z sites.  These are the bits
    a vdot of the amplitudes against P|s> gives, since its only nonzero
    product is conj(a_k) * (+-a_k).  Only the strings with no X part read
    the mask reversal.

    On any other state the value is entry z_mask of the state's table for
    P's X part (see `_walsh_table`), read with one ``ndarray.item`` as a
    Python float.  The table is built once in O(2**n * 2**(n/2)) and kept
    until a string with another X part is asked for.  Asking in ascending
    (x_mask, z_mask) order, as moment assembly does, builds each table once.
    The value agrees with that vdot to within a few (n + 1) eps <s|s>, not
    bit for bit, and does not depend on the order of the calls.
    """
    n = s.n_qubits
    if (x_mask | z_mask) >> n:
        raise DimensionMismatchError(
            f"string masks ({x_mask:#x}, {z_mask:#x}) reach past the state's {n} qubits"
        )
    basis = s._basis
    if basis is not None:
        if x_mask:
            return 0.0
        k, weight = basis
        reversal = _index_tables(n)[1]
        # + 0.0: an underflowed weight gives 0.0, never -0.0
        return (-weight if (k & reversal.item(z_mask)).bit_count() & 1 else weight) + 0.0
    slot = s.__dict__.get("_walsh")
    if slot is None or slot[0] != x_mask:
        # the frozen dataclass's own __dict__, as cached_property writes it
        slot = s.__dict__["_walsh"] = (x_mask, _walsh_table(s, x_mask))
    return slot[1].item(z_mask)


def visible_strings(x_masks: np.ndarray, s: StateVector) -> np.ndarray:
    """Whether the state can see each string with these X parts (bit q =
    qubit q, each mask within the state's qubits): True when some nonzero
    amplitude b has b ^ X nonzero too, X the mask's amplitude-index bits.

    An invisible string has <s|P|s> = +0.0 exactly: for finite amplitudes
    every product of `pauli_expectation` is then +-0, and the kernel's
    + 0.0 makes the value +0.0.  On a basis state (see
    `StateVector.basis_index`) the visible strings are those with no X
    part.  On any other state the rule reads one table per state,
    built once in O(2**n * 2**(n/2)) (see `StateVector._visible`).
    A visible string may still have the value 0.
    """
    if s._basis is not None:
        return x_masks == 0
    return s._visible.take(x_masks)


def expectation(h: PauliSum, s: StateVector) -> float:
    """<s|H|s>; the imaginary residual is checked."""
    val = complex(np.vdot(s.amplitudes, apply_pauli_sum(h, s).amplitudes))
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise ContractViolationError(f"imaginary residual {val.imag:g} too large")
    return float(val.real)


def apply_generator_rotation(theta: float, g: PauliString, s: StateVector) -> StateVector:
    """exp(i*theta*G)|s> = (cos(theta) I + i sin(theta) G)|s> for a
    generator string G, using G**2 = I."""
    check_sizes(g, s)
    image = _pauli_image(g.x_mask, g.z_mask, s)
    rotated = np.cos(theta) * s.amplitudes + 1j * np.sin(theta) * image
    return StateVector(s.n_qubits, rotated)


def fidelity(a: StateVector, b: StateVector) -> float:
    """|<a|b>|**2 for normalized states."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError("states act on different qubit counts")
    for s in (a, b):
        _require_unit(s, "state")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def require_dense(n_qubits: int) -> None:
    """Raise CapacityError when a dense operator on `n_qubits` qubits is
    past DENSE_QUBIT_LIMIT."""
    if n_qubits > DENSE_QUBIT_LIMIT:
        raise CapacityError(f"{n_qubits} qubits exceeds the dense limit of {DENSE_QUBIT_LIMIT}")


def dense_matrix(h: PauliSum) -> np.ndarray:
    """Dense 2**n x 2**n matrix of a sum.

    Each string is a signed permutation, so the matrix is filled column-wise
    in O(2**n) per term instead of building kron chains.
    """
    n = h.n_qubits
    require_dense(n)
    cols, reversal, _, sign = _index_tables(n)
    out = np.zeros((len(cols), len(cols)), dtype=complex)
    for x, z, c in zip(h.x.tolist(), h.z.tolist(), h.coeff.tolist()):
        phase = c * 1j ** ((x & z).bit_count() % 4)
        out[cols ^ reversal[x], cols] += phase * sign[cols & reversal[z]]
    return out


def exact_diagonalize(h: PauliSum) -> SpectrumResult:
    """Full spectrum of the dense Hermitian matrix, ascending."""
    mat = dense_matrix(h)
    eigenvalues, vectors = np.linalg.eigh(mat)
    ground = StateVector(h.n_qubits, vectors[:, 0])
    eigenvalues = eigenvalues.copy()
    eigenvalues.setflags(write=False)
    return SpectrumResult(eigenvalues, ground)
