"""Hamiltonian moments K_n = <Phi|H^n|Phi>, connected moments, and the
Horn-Weinstein energy series.

Two independent routes compute the raw moments: the Pauli route expands H^n
as a collected Pauli sum and measures each distinct Pauli string once,
while the dense route repeatedly applies H to the state.  They must agree;
tests enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, isfinite
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ContractViolationError,
    InsufficientMomentsError,
)
from .pauli import PauliString, PauliSum, group_keys
from .statevector import (
    DENSE_QUBIT_LIMIT,
    StateVector,
    apply_pauli_sum,
    pauli_expectation,
)

_IMAG_TOL = 1e-10
SATURATION_TOLERANCE = 1e-8


@dataclass(frozen=True)
class MomentTable:
    """Raw moments K_0..K_max (K_0 = 1) and the connected moments I_1..I_max
    they determine.

    The connected moments are derived once, when the table is built, by

        I_k = K_k - sum_{i=0}^{k-2} C(k-1, i) I_{i+1} K_{k-i-1},

    computed ascending with exact integer binomials, so every table carries
    both the K_n that PDS reads and the I_k that CMX reads.  Every moment
    must be finite: a Hamiltonian whose powers overflow float64 is rejected
    here, naming the first non-finite order, before any solver reads it.
    """

    raw: tuple[float, ...]
    connected: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        raw = self.raw
        if len(raw) < 2 or raw[0] != 1.0:
            raise ValueError("raw moments must start with K_0 = 1")
        for k, value in enumerate(raw):
            if not isfinite(value):
                raise ContractViolationError(f"raw moment K_{k} = {value} is not finite")
        connected: list[float] = []
        for k in range(1, len(raw)):
            value = raw[k]
            for i in range(0, k - 1):
                value -= comb(k - 1, i) * connected[i] * raw[k - i - 1]
            connected.append(value)
        for k, value in enumerate(connected, start=1):
            if not isfinite(value):
                raise ContractViolationError(f"connected moment I_{k} = {value} is not finite")
        object.__setattr__(self, "connected", tuple(connected))

    @property
    def max_order(self) -> int:
        return len(self.raw) - 1


def string_expectations(xs: np.ndarray, zs: np.ndarray, state: StateVector) -> np.ndarray:
    """The exact <Phi|P|Phi> of each string given by the masks, in array
    order: one `pauli_expectation` kernel call per string.

    The `PauliString` built here for the scalar kernel is the only
    per-string object either moment route makes; it stays until a kernel
    takes masks directly."""
    n = state.n_qubits
    return np.fromiter(
        (pauli_expectation(PauliString(n, x, z), state)
         for x, z in zip(xs.tolist(), zs.tolist())),
        float, len(xs),
    )


@dataclass(frozen=True, eq=False)
class PauliExpectationCache:
    """The exact <Phi|P|Phi> of every distinct string one moment
    table measured, as aligned arrays in ascending (x_mask, z_mask) order,
    the order in which they were measured: uint64 masks ``x`` and ``z`` and
    float ``values``.

    ``misses`` counts the measured strings, one kernel call each; ``hits``
    counts the other non-identity terms, which reuse a measured value.  The
    identity string is never measured: its expectation is exactly 1.  No
    per-string object is kept; the kernel's `PauliString` (see
    `string_expectations`) is the only one built.
    """

    x: np.ndarray
    z: np.ndarray
    values: np.ndarray
    hits: int

    @property
    def misses(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)


def hamiltonian_powers(h: PauliSum, max_order: int) -> list[PauliSum]:
    """[H^1, ..., H^max_order] as collected Pauli sums.

    Iterated sum-times-sum products keep the term count bounded by
    min(M^l, 4**n) instead of enumerating M^l index tuples.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    powers = [h]
    # a product that overflows float64 leaves non-finite coefficients, and
    # so non-finite moments, which MomentTable rejects by order
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_order - 1):
            powers.append(powers[-1] * h)
    return powers


def _real_moment(value: complex, order: int) -> float:
    if abs(value.imag) > _IMAG_TOL * max(1.0, abs(value.real)):
        raise ContractViolationError(
            f"K_{order} has imaginary residual {value.imag:g}"
        )
    return float(value.real)


def _ordered_sum(terms: np.ndarray) -> float:
    """Sum from 0.0 in array order, as a Python loop adds; np.sum would add
    pairwise.  The + 0.0 gives an all-negative-zero sum the 0.0 start."""
    return float(np.cumsum(terms)[-1]) + 0.0 if len(terms) else 0.0


def assemble_moments(
    powers: Sequence[PauliSum],
    max_order: int,
    values: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> tuple[MomentTable, int]:
    """K_l = sum over the terms c P of H^l of c * <P>, with <P> from one
    batch provider call.

    `values(xs, zs)` is called exactly once per table, with the uint64 masks
    of every distinct non-identity string of H^1..H^max_order in ascending
    (x, z) order, and returns one float per string; each string stands for
    one measured circuit.  The identity term contributes c itself.  Each
    K_l is summed from 0.0 in the power's canonical term order, real and
    imaginary parts apart, so the result is bit for bit that of adding the
    terms one by one and depends only on the powers' term sets.  Also
    returns the number of non-identity terms, so hits = terms - distinct
    strings.
    """
    used = powers[:max_order]
    x = np.concatenate([p.x for p in used])
    z = np.concatenate([p.z for p in used])
    coeff = np.concatenate([p.coeff for p in used])
    measured = (x | z) != 0
    x, z = x[measured], z[measured]
    first, group = group_keys(x, z)
    expectation = np.ones(len(coeff))
    expectation[measured] = np.asarray(values(x[first], z[first]), dtype=float)[group]
    raw = [1.0]
    stop = 0
    # overflowed powers give non-finite moments, which MomentTable rejects
    with np.errstate(over="ignore", invalid="ignore"):
        real, imag = coeff.real * expectation, coeff.imag * expectation
        for order, power in enumerate(used, start=1):
            start, stop = stop, stop + len(power)
            total = complex(_ordered_sum(real[start:stop]), _ordered_sum(imag[start:stop]))
            raw.append(_real_moment(total, order))
    return MomentTable(tuple(raw)), len(x)


def raw_moments_pauli(
    h: PauliSum,
    state: StateVector,
    max_order: int,
    powers: Sequence[PauliSum] | None = None,
) -> tuple[MomentTable, PauliExpectationCache]:
    """Raw moments via the Pauli-product expansion.

    K_l = sum over collected terms c * <Phi|P|Phi>, each distinct
    string measured once.  Precomputed powers can be passed when sweeping
    many states against one Hamiltonian.
    """
    if not h.is_hermitian():
        raise ContractViolationError("moments require a Hermitian sum")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if powers is None:
        powers = hamiltonian_powers(h, max_order)
    elif len(powers) < max_order:
        raise InsufficientMomentsError(
            f"{len(powers)} precomputed powers cannot serve order {max_order}"
        )
    measured: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def measure(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        measured.append((xs, zs, string_expectations(xs, zs, state)))
        return measured[0][2]

    table, terms = assemble_moments(powers, max_order, measure)
    xs, zs, values = measured[0]
    return table, PauliExpectationCache(xs, zs, values, terms - len(values))


def raw_moments_dense(h: PauliSum, state: StateVector, max_order: int) -> MomentTable:
    """Raw moments K_n = <Phi|v_n> on the Krylov chain |v_n> = H^n|Phi>;
    the independent oracle route."""
    if not h.is_hermitian():
        raise ContractViolationError("moments require a Hermitian sum")
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if h.n_qubits > DENSE_QUBIT_LIMIT:
        raise CapacityError(
            f"{h.n_qubits} qubits exceeds the dense limit of {DENSE_QUBIT_LIMIT}"
        )
    raw = [1.0]
    v = state
    for order in range(1, max_order + 1):
        v = apply_pauli_sum(h, v)
        raw.append(_real_moment(complex(np.vdot(state.amplitudes, v.amplitudes)), order))
    return MomentTable(tuple(raw))


def hw_energy_series(table: MomentTable, tau: float, order: int) -> float:
    """Truncated Horn-Weinstein series sum_{k=0}^{order} (-tau)^k/k! I_{k+1}."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if order < 0 or order > len(table.connected) - 1:
        raise InsufficientMomentsError(
            f"order {order} needs I_{order + 1}, have I_1..I_{len(table.connected)}"
        )
    return float(
        sum(
            (-tau) ** k / factorial(k) * table.connected[k]
            for k in range(order + 1)
        )
    )


def lanczos(
    h: PauliSum, state: StateVector, max_steps: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal alpha and off-diagonal beta of the Lanczos tridiagonal of H
    on the Krylov space of |Phi>, whose eigenvalues are the Ritz values.

    Each direction is orthogonalised twice against the whole basis.  The
    chain stops after max_steps steps (default 2**n) or when a residual is
    below SATURATION_TOLERANCE * max(1, |v|) for the vector v it came from
    (H q, or |Phi> at the first step), so len(alpha) is the Krylov
    dimension capped at max_steps.
    """
    dim = 1 << h.n_qubits
    steps = dim if max_steps is None else min(max_steps, dim)
    basis = np.empty((0, dim), dtype=complex)
    alpha: list[float] = []
    norms: list[float] = []
    v = state.amplitudes
    while len(basis) < steps:
        w = v
        for _pass in range(2):
            w = w - basis.T @ (basis.conj() @ w)
        norm = float(np.linalg.norm(w))
        if norm < SATURATION_TOLERANCE * max(1.0, float(np.linalg.norm(v))):
            break
        norms.append(norm)
        basis = np.vstack([basis, w / norm])
        v = apply_pauli_sum(h, StateVector(h.n_qubits, basis[-1])).amplitudes
        alpha.append(float(np.vdot(basis[-1], v).real))
    return np.array(alpha), np.array(norms[1:])


def krylov_rank(h: PauliSum, state: StateVector, max_dim: int | None = None) -> int:
    """Dimension of span{H^k|Phi>}, capped at max_dim: the Lanczos step count."""
    return len(lanczos(h, state, max_dim)[0])


def reachable_spectrum(h: PauliSum, state: StateVector) -> np.ndarray:
    """Eigenvalues of H restricted to the Krylov space of |Phi>, ascending:
    the Ritz values of the saturated Lanczos tridiagonal."""
    alpha, beta = lanczos(h, state)
    return np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
