"""Finite-shot emulation of Hadamard-test expectation estimates with readout
and depolarizing errors, and moment assembly from the noisy estimates.

The emulation works at the outcome-probability level: for a true expectation
x the ancilla reads 0 with probability (1 + lambda*x)/2, where the damping
lambda = (1-p1)^n1 (1-p2)^n2 collapses the depolarizing channel onto a gate
count proxy.  Thermal relaxation is deliberately out of scope, so absolute
noisy values are not comparable to hardware-calibrated simulators.

A moment table samples all its distinct strings at once: one generator
seeded with the model's seed draws them as arrays in the ascending
(x_mask, z_mask) order in which every `PauliSum` keeps its terms.  Seeded
tables are bit-reproducible and, like the exact routes, do not depend on
the order of the Hamiltonian's terms, but a string's estimate depends on
the set of strings its table measures.

`noisy_moments` returns the measured strings as one `SampledStrings`
record of aligned arrays in that sampling order: the masks, the exact
expectations and the batch of shot estimates.  The record is also a
read-only mapping from each measured `PauliString` to its scalar
`ShotEstimate`, so no per-string object is built unless a caller asks for
one.
"""

from __future__ import annotations

import numbers
from collections.abc import ItemsView, Iterator, Mapping, ValuesView
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .moments import MomentTable, assemble_moments, hamiltonian_powers, string_expectations
from .pauli import PauliString, PauliSum, find_string
from .statevector import _NORM_TOL, StateVector, check_trial

# every trial that `check_trial` admits has <s|s> <= (1 + _NORM_TOL)^2, so
# |<s|P|s>| stays below this limit, with room left for rounding
EXPECTATION_LIMIT = 1.0 + 3.0 * _NORM_TOL

# the largest count Generator.binomial accepts: np.int64's maximum
MAX_SHOTS = 2**63 - 1


@dataclass(frozen=True)
class NoiseModel:
    """Readout fidelities (p00, p11), depolarizing probabilities per 1q/2q
    gate equivalent, shot budget in [1, MAX_SHOTS], and RNG seed."""

    p00: float = 1.0
    p11: float = 1.0
    p1: float = 0.0
    p2: float = 0.0
    shots: int = 8192
    seed: int = 0

    def __post_init__(self):
        for name in ("p00", "p11", "p1", "p2"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class ShotEstimate:
    """One estimated expectation: the raw (biased) value, the
    readout/damping-mitigated value, and the plug-in standard error.  For a
    batch of expectations these three fields are arrays."""

    raw_estimate: float | np.ndarray
    mitigated_estimate: float | np.ndarray
    standard_error: float | np.ndarray
    shots_used: int
    mitigation_applied: bool = True


@dataclass(frozen=True, eq=False)
class SampledStrings(Mapping[PauliString, ShotEstimate]):
    """The distinct strings one noisy moment table sampled, as aligned
    arrays in sampling order, which is ascending (x, z) mask order.

    ``x`` and ``z`` are the masks, in the width of the sum they came from
    (see `cmxlab.pauli`), ``true`` the exact expectation of each string and
    ``batch`` the `ShotEstimate` of arrays from the table's one
    `hadamard_test_estimate` call.  As a mapping, a measured `PauliString`
    on ``n_qubits`` qubits gives its scalar `ShotEstimate`, whose floats
    are the batch's elements; any other key, the identity included, raises
    KeyError.  Lookups go through `find_string`.  Iteration yields the
    strings in sampling order.
    """

    n_qubits: int
    x: np.ndarray
    z: np.ndarray
    true: np.ndarray
    batch: ShotEstimate

    def __post_init__(self):
        for array in (self.x, self.z, self.true):
            array.setflags(write=False)

    def _index(self, p: object) -> int:
        if isinstance(p, PauliString) and p.n_qubits == self.n_qubits:
            i = find_string(self.x, self.z, p.x_mask, p.z_mask)
            if i is not None:
                return i
        raise KeyError(p)

    def _estimate(self, raw: float, mitigated: float, error: float) -> ShotEstimate:
        return ShotEstimate(raw, mitigated, error, self.batch.shots_used,
                            self.batch.mitigation_applied)

    def _estimates(self) -> Iterator[ShotEstimate]:
        b = self.batch
        for row in zip(b.raw_estimate.tolist(), b.mitigated_estimate.tolist(),
                       b.standard_error.tolist()):
            yield self._estimate(*row)

    def __getitem__(self, p: PauliString) -> ShotEstimate:
        i = self._index(p)
        b = self.batch
        return self._estimate(float(b.raw_estimate[i]), float(b.mitigated_estimate[i]),
                              float(b.standard_error[i]))

    def __iter__(self) -> Iterator[PauliString]:
        n = self.n_qubits
        for x, z in zip(self.x.tolist(), self.z.tolist()):
            yield PauliString(n, x, z)

    def __len__(self) -> int:
        return len(self.x)

    def values(self) -> ValuesView:
        return _SampledValues(self)

    def items(self) -> ItemsView:
        return _SampledItems(self)


class _SampledValues(ValuesView):
    """Values read off the batch arrays in order, with no lookups."""

    def __iter__(self):
        return self._mapping._estimates()


class _SampledItems(ItemsView):
    """Items read off the record's arrays in order, with no lookups."""

    def __iter__(self):
        return zip(self._mapping, self._mapping._estimates())


def damping_factor(nm: NoiseModel, depth_proxy: tuple[int, int]) -> float:
    """(1-p1)^n1 (1-p2)^n2 for depth_proxy = (n1, n2) gate equivalents."""
    if len(depth_proxy) != 2 or not all(
        isinstance(n, numbers.Integral) and n >= 0 for n in depth_proxy
    ):
        raise ValueError(
            f"depth_proxy must be two non-negative ints (n1, n2), got {depth_proxy!r}"
        )
    n1, n2 = depth_proxy
    return (1.0 - nm.p1) ** n1 * (1.0 - nm.p2) ** n2


def hadamard_test_estimate(
    true_expectation: float | np.ndarray,
    nm: NoiseModel,
    depth_proxy: tuple[int, int] = (0, 1),
) -> ShotEstimate:
    """Sample Hadamard-test estimates of real expectations in [-1, 1].

    `true_expectation` is one value or a 1-d array of values.  Every value
    is sampled independently from one generator seeded with nm.seed, in
    array order, by three array draws: the ancilla's true zeros, then the
    zeros read from true zeros, then the zeros read from true ones.  A
    scalar gives a ShotEstimate of floats, bit for bit element 0 of the
    size-1 array call; an array gives one whose estimate and error fields
    are arrays of its length.  Non-finite values and |x| > EXPECTATION_LIMIT
    are rejected; values past 1 within it are sampled as +-1.

    depth_proxy counts (1q, 2q) gate equivalents: state-preparation flips
    plus one controlled operation per test.  Mitigation inverts the readout
    channel and divides out the damping; it is disabled (with the flag
    cleared) when the channel is singular or the signal fully depolarized.
    """
    x = np.asarray(true_expectation, dtype=float)
    # NaN fails every comparison, so it lands outside
    outside = ~(np.abs(x) <= EXPECTATION_LIMIT)
    if outside.any():
        raise ContractViolationError(
            f"expectation must be finite with |x| <= {EXPECTATION_LIMIT:.10g}, "
            f"got {x[outside].flat[0]}"
        )
    x = np.clip(x, -1.0, 1.0)
    rng = np.random.default_rng(nm.seed)
    damping = damping_factor(nm, depth_proxy)
    p_zero = (1.0 + damping * x) / 2.0

    true_zeros = rng.binomial(nm.shots, p_zero)
    read_zeros = rng.binomial(true_zeros, nm.p00) + rng.binomial(
        nm.shots - true_zeros, 1.0 - nm.p11
    )
    raw = 2.0 * read_zeros / nm.shots - 1.0
    standard_error = np.sqrt(np.maximum(0.0, 1.0 - raw * raw) / nm.shots)

    determinant = nm.p00 + nm.p11 - 1.0
    applied = determinant > 1e-12 and damping > 1e-12
    mitigated = (raw - (nm.p00 - nm.p11)) / determinant / damping if applied else raw
    if x.ndim == 0:
        raw, mitigated, standard_error = float(raw), float(mitigated), float(standard_error)
    return ShotEstimate(raw, mitigated, standard_error, nm.shots, applied)


def noisy_moments(
    h: PauliSum,
    state: StateVector,
    max_order: int,
    nm: NoiseModel,
    depth_proxy: tuple[int, int] = (0, 1),
    mitigated: bool = True,
) -> tuple[MomentTable, SampledStrings]:
    """Moment table assembled exactly like the noiseless Pauli route, with
    every distinct string expectation replaced by its shot estimate.

    The identity string contributes exactly 1 without sampling.  Each
    distinct string is sampled once and reused across all orders, so moment
    errors are correlated precisely as measurement reuse implies.  All
    strings of the table are sampled in one `hadamard_test_estimate` call
    from a generator seeded with nm.seed, in the ascending (x_mask, z_mask)
    order `assemble_moments` hands them over, so the table does not depend
    on the order of H's terms; a string's estimate does depend on which
    strings the table measures.  The sampled strings are returned as one
    `SampledStrings` record in that sampling order.  The trial must have
    unit norm (see `check_trial`).
    """
    check_trial(h, state)
    powers = hamiltonian_powers(h, max_order)
    sampled: list[SampledStrings] = []

    def estimate(xs: np.ndarray, zs: np.ndarray) -> np.ndarray:
        truth = string_expectations(xs, zs, state)
        batch = hadamard_test_estimate(truth, nm, depth_proxy)
        sampled.append(SampledStrings(h.n_qubits, xs, zs, truth, batch))
        return batch.mitigated_estimate if mitigated else batch.raw_estimate

    table, _ = assemble_moments(powers, max_order, estimate)
    return table, sampled[0]
