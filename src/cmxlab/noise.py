"""Finite-shot emulation of Hadamard-test expectation estimates with readout
and depolarizing errors, and moment assembly from the noisy estimates.

The emulation works at the outcome-probability level: for a true expectation
x the ancilla reads 0 with probability (1 + lambda*x)/2, where the damping
lambda = (1-p1)^n1 (1-p2)^n2 collapses the depolarizing channel onto a gate
count proxy.  Thermal relaxation is deliberately out of scope, so absolute
noisy values are not comparable to hardware-calibrated simulators; seeded
runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .moments import MomentTable, assemble_moments, hamiltonian_powers, masked_expectation
from .pauli import PauliString, PauliSum
from .statevector import StateVector


@dataclass(frozen=True)
class NoiseModel:
    """Readout fidelities (p00, p11), depolarizing probabilities per 1q/2q
    gate equivalent, shot budget, and RNG seed."""

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
        if self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def readout_invertible(self) -> bool:
        """The 2x2 readout channel is invertible iff p00 + p11 > 1."""
        return self.p00 + self.p11 > 1.0


@dataclass(frozen=True)
class ShotEstimate:
    """One estimated expectation: the raw (biased) value, the
    readout/damping-mitigated value, and the plug-in standard error."""

    raw_estimate: float
    mitigated_estimate: float
    standard_error: float
    shots_used: int
    mitigation_applied: bool = True


def damping_factor(nm: NoiseModel, depth_proxy: tuple[int, int]) -> float:
    n1, n2 = depth_proxy
    return (1.0 - nm.p1) ** n1 * (1.0 - nm.p2) ** n2


def hadamard_test_estimate(
    true_expectation: float,
    nm: NoiseModel,
    depth_proxy: tuple[int, int] = (0, 1),
    rng: np.random.Generator | None = None,
) -> ShotEstimate:
    """Sample a Hadamard-test estimate of a real expectation in [-1, 1].

    depth_proxy counts (1q, 2q) gate equivalents: state-preparation flips
    plus one controlled operation per test.  Mitigation inverts the readout
    channel and divides out the damping; it is disabled (with the flag
    cleared) when the channel is singular or the signal fully depolarized.
    """
    if abs(true_expectation) > 1.0 + 1e-12:
        raise ContractViolationError(
            f"|expectation| must be <= 1, got {true_expectation}"
        )
    x = min(1.0, max(-1.0, true_expectation))
    if rng is None:
        rng = np.random.default_rng(nm.seed)
    damping = damping_factor(nm, depth_proxy)
    p_zero = (1.0 + damping * x) / 2.0

    true_zeros = int(rng.binomial(nm.shots, p_zero))
    read_zeros = int(rng.binomial(true_zeros, nm.p00)) + int(
        rng.binomial(nm.shots - true_zeros, 1.0 - nm.p11)
    )
    raw = 2.0 * read_zeros / nm.shots - 1.0
    standard_error = math.sqrt(max(0.0, 1.0 - raw * raw) / nm.shots)

    determinant = nm.p00 + nm.p11 - 1.0
    if determinant <= 1e-12 or damping <= 1e-12:
        return ShotEstimate(raw, raw, standard_error, nm.shots, mitigation_applied=False)
    mitigated = (raw - (nm.p00 - nm.p11)) / determinant / damping
    return ShotEstimate(raw, mitigated, standard_error, nm.shots)


def _string_rng(nm: NoiseModel, x_mask: int, z_mask: int) -> np.random.Generator:
    # sub-seed per string: estimates are independent of evaluation order
    return np.random.default_rng(
        np.random.SeedSequence(entropy=nm.seed, spawn_key=(x_mask, z_mask))
    )


def noisy_moments(
    h: PauliSum,
    state: StateVector,
    max_order: int,
    nm: NoiseModel,
    depth_proxy: tuple[int, int] = (0, 1),
    mitigated: bool = True,
) -> tuple[MomentTable, dict[PauliString, ShotEstimate]]:
    """Moment table assembled exactly like the noiseless Pauli route, with
    every distinct phaseless expectation replaced by its shot estimate.

    The identity string contributes exactly 1 without sampling.  Each
    distinct string is sampled once and reused across all orders, so moment
    errors are correlated precisely as measurement reuse implies.
    """
    if not h.is_hermitian():
        raise ContractViolationError("moments require a Hermitian sum")
    powers = hamiltonian_powers(h, max_order)
    sampled: dict[tuple[int, int], ShotEstimate] = {}

    def estimate(x: int, z: int) -> float:
        truth = masked_expectation(x, z, state)
        est = sampled[x, z] = hadamard_test_estimate(
            truth, nm, depth_proxy, rng=_string_rng(nm, x, z)
        )
        return est.mitigated_estimate if mitigated else est.raw_estimate

    table, _ = assemble_moments(powers, max_order, estimate)
    estimates = {PauliString(h.n_qubits, x, z): est for (x, z), est in sampled.items()}
    return table, estimates
