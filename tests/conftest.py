"""Shared test oracles.

The dense references are built from literal 2x2 matrices and numpy alone, so
they stay independent of the package implementation they check.  Qubit 0 is
the leftmost label character and the most significant amplitude index bit,
matching the package convention.  The scalar string product (`multiply`,
`reduce_product`) is the oracle for the array product of `PauliSum`, and
`cmx_closed_form` the oracle for the Cioslowski recursion.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from cmxlab.errors import DimensionMismatchError
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import StateVector

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def label_matrix(label: str) -> np.ndarray:
    """Dense matrix of a Pauli label via explicit kron products."""
    out = np.array([[1.0 + 0.0j]])
    for ch in label:
        out = np.kron(out, SINGLE[ch])
    return out


def dense_of_terms(terms, n_qubits: int | None = None) -> np.ndarray:
    """Dense matrix of [(coeff, label), ...]; pass n_qubits for no terms."""
    n = len(terms[0][1]) if n_qubits is None else n_qubits
    out = np.zeros((2**n, 2**n), dtype=complex)
    for coeff, label in terms:
        out += coeff * label_matrix(label)
    return out


def dense_of_sum(h: PauliSum) -> np.ndarray:
    """Dense matrix of a PauliSum, using only its (label, coefficient) view."""
    return dense_of_terms([(c, p.label) for p, c in h.sorted_items()], h.n_qubits)


def string_matrix(p: PauliString, phase_exponent: int = 0) -> np.ndarray:
    """Dense matrix of i**phase_exponent * p."""
    return (1j**phase_exponent) * label_matrix(p.label)


def _check_dims(a: PauliString, b: PauliString) -> None:
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(
            f"qubit counts differ: {a.n_qubits} vs {b.n_qubits}"
        )


def multiply(a: PauliString, b: PauliString) -> tuple[PauliString, int]:
    """Exact group product a*b = i**k * P, returned as (P, k) with k in 0..3.

    Writing each factor in X^x Z^z form costs a phase i per Y site; commuting
    the inner Z past X picks up (-1) per overlapping bit; converting back to
    the canonical Y representation refunds a phase i per Y site of the result.
    """
    _check_dims(a, b)
    x = a.x_mask ^ b.x_mask
    z = a.z_mask ^ b.z_mask
    exponent = (
        (a.x_mask & a.z_mask).bit_count()
        + (b.x_mask & b.z_mask).bit_count()
        + 2 * (a.z_mask & b.x_mask).bit_count()
        - (x & z).bit_count()
    )
    return PauliString(a.n_qubits, x, z), exponent % 4


def reduce_product(factors, n_qubits: int | None = None) -> tuple[PauliString, int]:
    """Left fold of `multiply`: a product of strings as one (string, phase
    exponent) pair.  An empty product is the identity; pass n_qubits to fix
    its size."""
    factors = list(factors)
    if not factors:
        if n_qubits is None:
            raise ValueError("empty product needs an explicit n_qubits")
        return PauliString.identity(n_qubits), 0
    out, exponent = factors[0], 0
    for f in factors[1:]:
        out, k = multiply(out, f)
        exponent += k
    return out, exponent % 4


def cmx_closed_form(ivals, order: int) -> float:
    """Literal second/third-order CMX closed forms from the connected
    moments I_1, I_2, ...; the oracle for the Cioslowski recursion.

    No singularity guards here: a zero I_3 raises ZeroDivisionError.
    """
    ivals = [float(v) for v in ivals]
    if order == 2:
        i1, i2, i3 = ivals[:3]
        return i1 - i2**2 / i3
    if order == 3:
        i1, i2, i3, i4, i5 = ivals[:5]
        return i1 - i2**2 / i3 - (1.0 / i3) * (i2 * i4 - i3**2) ** 2 / (i5 * i3 - i4**2)
    raise ValueError(f"closed forms exist for orders 2 and 3 only, got {order}")


def coefficient_norm(h: PauliSum) -> float:
    """Sum of |h_j|; an upper bound on the operator norm."""
    return sum(np.abs(h.coeff).tolist())


def basis_vector(bits: str) -> np.ndarray:
    v = np.zeros(2 ** len(bits), dtype=complex)
    v[int(bits, 2)] = 1.0
    return v


def dense_moments(h_dense: np.ndarray, phi: np.ndarray, max_order: int) -> list[float]:
    """K_0..K_max by repeated dense matrix application."""
    values = [1.0]
    v = phi.copy()
    for _ in range(max_order):
        v = h_dense @ v
        values.append(float(np.real(np.vdot(phi, v))))
    return values


def dense_reachable_spectrum(h_dense: np.ndarray, phi: np.ndarray, tol=1e-10) -> np.ndarray:
    """Eigenvalues of h restricted to the Krylov span of phi (dense route)."""
    basis = []
    v = phi.copy()
    for _ in range(h_dense.shape[0]):
        w = v.copy()
        for _ in range(2):
            for b in basis:
                w = w - np.vdot(b, w) * b
        norm = np.linalg.norm(w)
        if norm < tol * max(1.0, np.linalg.norm(v)):
            break
        basis.append(w / norm)
        v = h_dense @ basis[-1]
    bmat = np.array(basis)
    block = bmat.conj() @ h_dense @ bmat.T
    block = (block + block.conj().T) / 2.0
    return np.linalg.eigvalsh(block)


_LABEL_CHARS = "IXYZ"


def random_label(rng: np.random.Generator, n: int) -> str:
    return "".join(_LABEL_CHARS[i] for i in rng.integers(0, 4, size=n))


def random_hermitian_sum(rng: np.random.Generator, n: int, n_terms: int) -> PauliSum:
    """Random real-coefficient sum; coefficients stay O(1) so high moments
    do not swamp float precision."""
    terms = [
        (float(rng.uniform(-1.0, 1.0)), random_label(rng, n))
        for _ in range(n_terms)
    ]
    return PauliSum.from_label_terms(terms, n_qubits=n)


def sum_and_trial(max_qubits: int):
    """Strategy for a random 1..max_qubits-qubit sum of 1-10 terms and a
    normalised trial state, a basis state or a random one, both drawn from
    one seed."""

    def build(n, n_terms, seed, basis):
        rng = np.random.default_rng(seed)
        h = random_hermitian_sum(rng, n, n_terms)
        if basis:
            amps = basis_vector("".join(rng.choice(["0", "1"], size=n)))
        else:
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
        return h, StateVector(n, amps)

    return st.builds(
        build,
        st.integers(1, max_qubits),
        st.integers(1, 10),
        st.integers(0, 2**32 - 1),
        st.booleans(),
    )


def siam_caption_terms(U: float, mu: float, eps0: float, eps1: float, V: float):
    """Impurity-model terms expanded by hand, independent of models.py."""
    t = [
        (U / 4, "IIII"), (-U / 4, "ZIII"), (-U / 4, "IIZI"), (U / 4, "ZIZI"),
        ((eps0 - mu), "IIII"), (-(eps0 - mu) / 2, "ZIII"), (-(eps0 - mu) / 2, "IIZI"),
        ((eps1 - mu), "IIII"), (-(eps1 - mu) / 2, "IZII"), (-(eps1 - mu) / 2, "IIIZ"),
        (V / 2, "XXII"), (V / 2, "YYII"), (V / 2, "IIXX"), (V / 2, "IIYY"),
    ]
    return t


def h2_block_eigenvalues(g) -> tuple[float, float]:
    """Eigenvalues of the {|01>,|10>} block of the six-term two-qubit model,
    from the hand-reduced 2x2 matrix."""
    g0, g1, g2, g3, g4, g5 = g
    d1 = g0 + g1 - g2 - g3
    d2 = g0 - g1 + g2 - g3
    off = g4 + g5
    mid = (d1 + d2) / 2.0
    rad = np.sqrt(((d1 - d2) / 2.0) ** 2 + off**2)
    return (mid - rad, mid + rad)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
