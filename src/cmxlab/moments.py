"""Hamiltonian moments K_n = <Phi|H^n|Phi>, connected moments, and the
Horn-Weinstein energy series.

Two independent routes compute the raw moments: the Pauli route expands H^n
as a collected Pauli sum and measures once each distinct Pauli string the
trial can see, while the dense route repeatedly applies H to the state.
They must agree; tests enforce it.  Both read the same real coefficients,
since every `PauliSum` is Hermitian from the moment it is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from math import comb, factorial, isfinite
from typing import Callable, Sequence

import numpy as np

from .errors import ContractViolationError, InsufficientMomentsError
from .pauli import PauliSum, group_keys
from .statevector import (
    StateVector,
    apply_pauli_sum,
    check_trial,
    pauli_expectation,
    require_dense,
    scaled_norm,
    visible_strings,
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
                raise _not_finite("raw moment K", k, value)
        connected = _connected(raw)
        for k, value in enumerate(connected, start=1):
            if not isfinite(value):
                raise _not_finite("connected moment I", k, value)
        object.__setattr__(self, "connected", tuple(connected))

    @property
    def max_order(self) -> int:
        return len(self.raw) - 1


def _not_finite(name: str, k: int, value: float) -> ContractViolationError:
    return ContractViolationError(f"{name}_{k} = {value} is not finite")


def _connected(raw):
    """I_1..I_max from K_0..K_max by the recursion `MomentTable` states,
    summed in the same order whether each K_k is a float or a column of
    rows."""
    connected = []
    for k in range(1, len(raw)):
        value = raw[k]
        for i in range(0, k - 1):
            value = value - comb(k - 1, i) * connected[i] * raw[k - i - 1]
        connected.append(value)
    return connected


def connected_rows(raw: np.ndarray) -> np.ndarray:
    """The connected moments I_1..I_max of each row of raw moments
    K_0..K_max, bit for bit those of `MomentTable`, with its checks: the
    first row that fails one raises what its `MomentTable` raises, a
    ValueError when it does not start with K_0 = 1 and a
    ContractViolationError naming its first non-finite moment."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise ValueError("raw moments must start with K_0 = 1")
    # overflow and inf - inf leave non-finite values, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        connected = np.array(_connected(list(raw.T))).T
    bad_start, bad_raw = raw[:, 0] != 1.0, ~np.isfinite(raw)
    bad_connected = ~np.isfinite(connected)
    bad = bad_start | bad_raw.any(axis=1) | bad_connected.any(axis=1)
    if bad.any():
        row = int(bad.argmax())
        if bad_start[row]:
            raise ValueError("raw moments must start with K_0 = 1")
        if bad_raw[row].any():
            k = int(bad_raw[row].argmax())
            raise _not_finite("raw moment K", k, raw[row, k].item())
        k = int(bad_connected[row].argmax())
        raise _not_finite("connected moment I", k + 1, connected[row, k].item())
    return connected


def string_expectations(xs: np.ndarray, zs: np.ndarray, state: StateVector) -> np.ndarray:
    """The exact <Phi|P|Phi> of each string given by the masks, in array
    order: one `pauli_expectation` kernel call per string.

    Each call stands for one Hadamard-test circuit, so the call count is
    the number of measured strings: on the exact route the strings the
    trial can see, on the noisy route every distinct string.  The kernel
    computes little per call: on a computational-basis trial it answers in
    O(1) from the state's `basis_index`, and on any other state it reads
    the state's table for the string's X part, which it builds once per run
    of equal x-masks.  Strings in ascending (x, z) order, as
    `assemble_moments` gives them, build each table once.  The kernel reads
    the masks themselves, so neither moment route builds a per-string
    object."""
    return np.fromiter(
        map(pauli_expectation, xs.tolist(), zs.tolist(), repeat(state, len(xs))),
        float, len(xs),
    )


@dataclass(frozen=True, eq=False)
class PauliExpectationCache:
    """The exact <Phi|P|Phi> of every string one moment table measured, as
    aligned arrays in ascending (x_mask, z_mask) order, the order in which
    they were measured: masks ``x`` and ``z`` of the sum's width (see
    `cmxlab.pauli`) and float ``values``.

    Only the strings the trial can see (see `statevector.visible_strings`)
    are measured.  ``misses`` counts them, one kernel call each: the number
    of Hadamard-test circuits.  ``unseen`` counts the other distinct
    non-identity strings, each a known +0.0 that costs no circuit, so
    ``misses + unseen`` is the number of distinct strings.  ``hits``
    counts the remaining non-identity terms, which reuse the value of a
    string counted in either.  The identity string is never measured: its
    expectation is exactly 1.  No per-string object is built or kept: the
    kernel reads each string's masks (see `string_expectations`).
    """

    x: np.ndarray
    z: np.ndarray
    values: np.ndarray
    hits: int
    unseen: int

    @property
    def misses(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)


def hamiltonian_powers(h: PauliSum, max_order: int) -> list[PauliSum]:
    """[H^1, ..., H^max_order] as collected Pauli sums.

    H^l = H^(l-1).symmetric_product(H): since H^(l-1) commutes with H, only
    commuting string pairs contribute, each with a real sign.  Iterated
    sum-times-sum products keep the term count bounded by min(M^l, 4**n)
    instead of enumerating M^l index tuples.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    powers = [h]
    # a product that overflows float64 leaves non-finite coefficients, and
    # so non-finite moments, which MomentTable rejects by order
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_order - 1):
            powers.append(powers[-1].symmetric_product(h))
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

    `values(xs, zs)` is called exactly once per table, with the masks of
    every distinct non-identity string of H^1..H^max_order in ascending
    (x, z) order, in the powers' own width (see `cmxlab.pauli`), and
    returns one float per string; each string stands for one measured
    circuit.  The identity term contributes c itself.  Each K_l is summed
    from 0.0 in the power's canonical term order, so the result is bit for
    bit that of adding the terms one by one and depends only on the powers'
    term sets.  Also returns the number of non-identity
    terms, so hits = terms - distinct strings.  A max_order below 1 raises
    ValueError, and fewer than max_order powers InsufficientMomentsError.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    if len(powers) < max_order:
        raise InsufficientMomentsError(
            f"{len(powers)} powers cannot serve order {max_order}"
        )
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
        terms = coeff * expectation
        for power in used:
            start, stop = stop, stop + len(power)
            raw.append(_ordered_sum(terms[start:stop]))
    return MomentTable(tuple(raw)), len(x)


def raw_moments_pauli(
    h: PauliSum,
    state: StateVector,
    max_order: int,
    powers: Sequence[PauliSum] | None = None,
) -> tuple[MomentTable, PauliExpectationCache]:
    """Raw moments via the Pauli-product expansion.

    K_l = sum over collected terms c * <Phi|P|Phi>.  Each distinct string
    the trial can see (see `statevector.visible_strings`) is measured once,
    one kernel call and one Hadamard-test circuit each.  Every other string
    is filled with +0.0, the bits the kernel would return for it, so the
    moments are bit for bit those of measuring every string.  Precomputed
    powers can be passed when sweeping many states against one
    Hamiltonian.  The trial must have unit norm (see `check_trial`).
    """
    check_trial(h, state)
    if powers is None:
        powers = hamiltonian_powers(h, max_order)
    measured: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]] = []

    def measure(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        seen = visible_strings(xs, state)
        xs, zs = xs[seen], zs[seen]
        found = string_expectations(xs, zs, state)
        measured.append((xs, zs, found, len(seen) - len(found)))
        values = np.zeros(len(seen))
        values[seen] = found
        return values

    table, terms = assemble_moments(powers, max_order, measure)
    xs, zs, values, unseen = measured[0]
    return table, PauliExpectationCache(xs, zs, values, terms - len(values) - unseen, unseen)


def raw_moments_dense(h: PauliSum, state: StateVector, max_order: int) -> MomentTable:
    """Raw moments K_n = <Phi|v_n> on the Krylov chain |v_n> = H^n|Phi>;
    the independent oracle route.  The trial must have unit norm (see
    `check_trial`)."""
    check_trial(h, state)
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    require_dense(h.n_qubits)
    raw = [1.0]
    v = state
    # as on the Pauli route, an overflowing chain gives non-finite moments,
    # which MomentTable rejects by order
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(1, max_order + 1):
            v = apply_pauli_sum(h, v)
            raw.append(_real_moment(complex(np.vdot(state.amplitudes, v.amplitudes)), order))
    return MomentTable(tuple(raw))


def hw_energy_rows(connected: np.ndarray, tau: float, order: int) -> np.ndarray:
    """Truncated Horn-Weinstein series sum_{k=0}^{order} (-tau)^k/k! I_{k+1}
    of each row of connected moments I_1, I_2, ..., summed from 0 in
    ascending k."""
    if tau < 0:
        raise ValueError(f"tau must be >= 0, got {tau}")
    if order < 0 or order > connected.shape[1] - 1:
        raise InsufficientMomentsError(
            f"order {order} needs I_{order + 1}, have I_1..I_{connected.shape[1]}"
        )
    total = 0
    for k in range(order + 1):
        total = total + (-tau) ** k / factorial(k) * connected[:, k]
    return total


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
        norm = scaled_norm(w)
        if norm < SATURATION_TOLERANCE * max(1.0, scaled_norm(v)):
            break
        norms.append(norm)
        basis = np.vstack([basis, w / norm])
        v = apply_pauli_sum(h, StateVector(h.n_qubits, basis[-1])).amplitudes
        alpha.append(float(np.vdot(basis[-1], v).real))
    return np.array(alpha), np.array(norms[1:])


def krylov_rank(h: PauliSum, state: StateVector, max_dim: int | None = None) -> int:
    """Dimension of span{H^k|Phi>}, capped at max_dim: the Lanczos step count."""
    return len(lanczos(h, state, max_dim)[0])

