"""Hamiltonian moments K_n = <Phi|H^n|Phi>, connected moments, and the
Horn-Weinstein energy series.

Two independent routes compute the raw moments: the Pauli route expands H^n
as a collected Pauli sum and measures once each distinct Pauli string the
trial can see, while the dense route repeatedly applies H to the state.
They must agree; tests enforce it.  Both read the same real coefficients,
since every `PauliSum` is Hermitian from the moment it is built.  The Pauli
route forms the powers and groups their strings once, in a `MomentPlan`,
which then assembles a table from one value per string: the exact values
here, the shot estimates in `cmxlab.noise`, for as many states as the plan
serves.

Every route returns a `MomentTable`, the one-row view of the checked
`MomentRows` record, which derives the connected moments I_k and rejects a
sequence that does not start with K_0 = 1 or holds a non-finite moment.
Both are defined in `cmxlab._record` and exported here.  `hw_energy_rows`
reads a stack of connected rows, such as `MomentRows.connected`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise, repeat
from math import factorial
from typing import Sequence

import numpy as np

from ._record import MomentRows, MomentTable
from .errors import ContractViolationError, InsufficientMomentsError
from .pauli import PauliSum, group_keys
from .statevector import (
    _IMAG_TOL,
    StateVector,
    apply_pauli_sum,
    check_sizes,
    check_trial,
    pauli_expectation,
    require_dense,
    scaled_norm,
    visible_strings,
)

SATURATION_TOLERANCE = 1e-8


def string_expectations(xs: np.ndarray, zs: np.ndarray, state: StateVector) -> np.ndarray:
    """The exact <Phi|P|Phi> of each string given by the masks, in array
    order: one `pauli_expectation` kernel call per string.

    Each call stands for one Hadamard-test circuit, so the call count is
    the number of measured strings: on the exact route the strings the
    trial can see, on the noisy route every distinct string.  The kernel
    computes little per call: on a computational-basis trial it answers in
    O(1) from the state's `basis_index`, and on any other state it reads
    the state's table for the string's X part, which it builds once per run
    of equal x-masks.  Strings in ascending (x, z) order, as a
    `MomentPlan` holds them, build each table once.  The kernel reads
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
    string counted in either.  The counts are of the plan's own powers: a
    plan built for states forms its top power only over the x-masks they
    see, so it can report fewer unseen strings and fewer hits than a fresh
    call for the same H, state and order, with the same misses and moments.
    The identity string is never measured: its expectation is exactly 1.
    No per-string object is built or kept: the kernel reads each string's
    masks (see `string_expectations`).  The arrays are read-only.
    """

    x: np.ndarray
    z: np.ndarray
    values: np.ndarray
    hits: int
    unseen: int

    def __post_init__(self):
        for array in (self.x, self.z, self.values):
            array.setflags(write=False)

    @property
    def misses(self) -> int:
        return len(self.values)


def hamiltonian_powers(
    h: PauliSum, max_order: int, seen: np.ndarray | None = None
) -> list[PauliSum]:
    """[H^1, ..., H^max_order] as collected Pauli sums.

    H^l = H^(l-1).symmetric_product(H): since H^(l-1) commutes with H, only
    commuting string pairs contribute, each with a real sign.  Iterated
    sum-times-sum products keep the term count bounded by min(M^l, 4**n)
    instead of enumerating M^l index tuples.

    A bool table `seen`, indexed by x-mask, is passed to the last product
    only: H^max_order (for max_order >= 2) keeps just its terms with a seen
    x-mask, each bit for bit the full power's, while the lower powers, which
    feed the next product, stay whole.  The union of `visible_strings` over
    the states to be measured drops only terms that add +-0 to their K_l.
    """
    if max_order < 1:
        raise ValueError(f"max_order must be >= 1, got {max_order}")
    powers = [h]
    # a product that overflows float64 leaves non-finite coefficients, and
    # so non-finite moments, which MomentTable rejects by order
    with np.errstate(over="ignore", invalid="ignore"):
        for order in range(2, max_order + 1):
            powers.append(powers[-1].symmetric_product(h, seen if order == max_order else None))
    return powers


def _real_moment(value: complex, order: int) -> float:
    if abs(value.imag) > _IMAG_TOL * max(1.0, abs(value.real)):
        raise ContractViolationError(
            f"K_{order} has imaginary residual {value.imag:g}"
        )
    return float(value.real)


class MomentPlan:
    """The powers H^1..H^max_order, their distinct measured strings grouped
    once, and the assembly of a moment table from one value per string.

    The plan forms the powers itself (see `hamiltonian_powers`) and records
    what it was built for: ``hamiltonian``, ``max_order`` and ``seen``.
    Given trial states, it forms the top power only over the x-masks some
    state can see, and ``seen`` is that read-only bool table, indexed by
    x-mask (see `statevector.visible_strings`); without states ``seen`` is
    None and the powers are whole.  ``x`` and ``z`` are the read-only masks
    of every distinct non-identity string of the powers, in ascending
    (x, z) order and the powers' own width (see `cmxlab.pauli`); each
    stands for one measured circuit.  ``terms`` counts the powers'
    non-identity terms, so ``terms - len(x)`` terms reuse a string's value.
    A state of another size raises DimensionMismatchError and a max_order
    below 1 ValueError, before anything is measured.  One plan serves any
    number of states whose visible x-masks ``seen`` covers.
    """

    def __init__(self, h: PauliSum, max_order: int, states: Sequence[StateVector] = ()):
        for state in states:
            check_sizes(h, state)
        seen = None
        if states:
            masks = np.arange(1 << h.n_qubits)
            seen = np.logical_or.reduce([visible_strings(masks, state) for state in states])
            seen.setflags(write=False)
        # positionally, through the module global: the benchmark's tracer
        # wraps it and reads H as its first argument
        powers = hamiltonian_powers(h, max_order, seen)
        x = np.concatenate([p.x for p in powers])
        z = np.concatenate([p.z for p in powers])
        measured = (x | z) != 0
        x, z = x[measured], z[measured]
        first, group = group_keys(x, z)
        self.x, self.z = x[first], z[first]
        for array in (self.x, self.z):
            array.setflags(write=False)
        self.hamiltonian, self.max_order, self.seen = h, max_order, seen
        self.terms = len(x)
        self._coeff = np.concatenate([p.coeff for p in powers])
        self._measured, self._group = measured, group
        self._powers = [slice(*ends) for ends in pairwise(accumulate(map(len, powers), initial=0))]

    def assemble(self, values: np.ndarray) -> MomentTable:
        """K_l = sum over the terms c P of H^l of c * values[P], with one
        float per string of ``x``; the identity term contributes c itself.
        Each K_l is summed from 0.0 in the power's canonical term order, so
        the result is bit for bit that of adding the terms one by one and
        depends only on the powers' term sets."""
        values = np.asarray(values, dtype=float)
        if values.shape != self.x.shape:
            raise ValueError(f"{values.shape} values for {len(self.x)} strings")
        expectation = np.ones(len(self._coeff))
        expectation[self._measured] = values[self._group]
        # overflowed powers give non-finite moments, which MomentTable rejects
        with np.errstate(over="ignore", invalid="ignore"):
            terms = self._coeff * expectation
            # cumsum adds in array order, where np.sum would add pairwise
            sums = [np.cumsum(terms[power]) for power in self._powers]
        # the + 0.0 gives an all-negative-zero sum the 0.0 start of a loop
        return MomentTable((1.0, *(float(s[-1]) + 0.0 if len(s) else 0.0 for s in sums)))


def raw_moments_pauli(
    h: PauliSum,
    state: StateVector,
    max_order: int,
    plan: MomentPlan | None = None,
) -> tuple[MomentTable, PauliExpectationCache]:
    """Raw moments via the Pauli-product expansion.

    K_l = sum over collected terms c * <Phi|P|Phi>.  Each distinct string
    the trial can see (see `statevector.visible_strings`) is measured once,
    one kernel call and one Hadamard-test circuit each.  Every other string
    is filled with +0.0, the bits the kernel would return for it, so the
    moments are bit for bit those of measuring every string.  A plan (see
    `MomentPlan`) can be passed when measuring many states against one
    Hamiltonian.  A plan built for another H or order, or one whose top
    power dropped terms with an x-mask this state can see, raises
    ValueError before anything is measured.  The returned cache counts the
    strings and terms of the plan's own powers (see `PauliExpectationCache`).
    The trial must have unit norm (see `check_trial`).
    """
    check_trial(h, state)
    if plan is None:
        plan = MomentPlan(h, max_order)
    elif (plan.hamiltonian != h or plan.max_order != max_order or plan.seen is not None
          and not plan.seen[visible_strings(np.arange(len(plan.seen)), state)].all()):
        raise ValueError(f"the plan cannot serve this H and state at order {max_order}")
    seen = visible_strings(plan.x, state)
    xs, zs = plan.x[seen], plan.z[seen]
    found = string_expectations(xs, zs, state)
    values = np.zeros(len(seen))
    values[seen] = found
    cache = PauliExpectationCache(xs, zs, found, plan.terms - len(seen), len(seen) - len(found))
    return plan.assemble(values), cache


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

