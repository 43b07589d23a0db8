"""Peeters-Devreese-Soldatov expansion: moment linear system, polynomial
roots, and variational energy bounds.

At order n the raw moments define the symmetric Hankel system M a = -b with
M_ij = K_(2n-(i+j)) and b_i = K_(2n-i); the roots of

    P_n(x) = x^n + a_1 x^(n-1) + ... + a_n

are upper bounds to the lowest n eigenvalues reachable from the trial state.
M is a Gram matrix of Krylov vectors, so once the Krylov chain saturates it
is rank-deficient by construction; the solve must survive that.  It runs on
the unit-free central moments of `_linalg.unit_free`, whose roots map back
to the units of H.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    kept_eigenvalues,
    spectral_condition,
    spectral_solve,
    symmetric_spectrum,
    unit_free,
)
from .errors import DegenerateRootsError, InsufficientMomentsError
from .moments import MomentTable

CONDITION_THRESHOLD = 1e10
IMAG_ROOT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class PdsResult:
    """Polynomial coefficients, roots, and solve diagnostics for PDS(n).

    Roots whose imaginary part exceeds the policy tolerance (they appear
    under noisy moments) are kept in `roots` and listed in `complex_roots`,
    but excluded from `real_roots_sorted` and from the energy bounds.
    """

    order: int
    coefficients: tuple[float, ...]
    roots: tuple[complex, ...]
    real_roots_sorted: tuple[float, ...]
    ground_energy: float
    condition_number: float
    used_pseudo_inverse: bool
    complex_roots: tuple[complex, ...] = ()


def _raw_values(moments: MomentTable | Sequence[float]) -> list[float]:
    if isinstance(moments, MomentTable):
        return list(moments.raw)
    values = [float(v) for v in moments]
    if not values or values[0] != 1.0:
        raise ValueError("raw moments must start with K_0 = 1")
    return values


def _require(raw: list[float], order: int) -> None:
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if len(raw) < 2 * order:
        raise InsufficientMomentsError(
            f"PDS({order}) needs K_0..K_{2 * order - 1}, have K_0..K_{len(raw) - 1}"
        )


def build_pds_system(
    moments: MomentTable | Sequence[float], order: int
) -> tuple[np.ndarray, np.ndarray]:
    """The Hankel matrix M_ij = K_(2n-(i+j)) and vector b_i = K_(2n-i)."""
    raw = _raw_values(moments)
    _require(raw, order)
    m = np.array(
        [[raw[2 * order - (i + j)] for j in range(1, order + 1)] for i in range(1, order + 1)]
    )
    b = np.array([raw[2 * order - i] for i in range(1, order + 1)])
    return m, b


def solve_pds(moments: MomentTable | Sequence[float], order: int) -> PdsResult:
    """Solve M a = -b, root the polynomial, and apply the complex-root policy.

    The system is built from the unit-free central moments (see
    `_linalg.unit_free`) and solved in float64; its roots x map back to
    K_1 + r x, and `coefficients` are those of the mapped roots, in the units
    of H.  The reported condition number is that of the unit-free M.  A
    condition number beyond CONDITION_THRESHOLD means the Krylov chain
    saturated below the requested order; the system is then reduced to its
    numerical rank (the eigenvalues `_linalg.kept_eigenvalues` keeps), whose
    roots are the genuine nodes, and the polynomial is padded with roots at
    the mean energy K_1.  The padding is deterministic,
    shift-covariant, and always inside the node hull, unlike the arbitrary
    extra root a raw minimal-norm solve would add.  An eigenstate trial, and
    every first-order solve, takes the same path: `unit_free` encodes it as a
    sharp energy at K_1, so M has rank 1, its one root lands at K_1 and the
    padding fills the rest, with an infinite condition number from order 2 on.

    A root counts as real when its unit-free node x has
    |Im x| <= IMAG_ROOT_TOLERANCE * (1 + |Re x|), so the policy, like the
    rest of the solve, does not depend on the units of H.
    """
    raw = _raw_values(moments)
    _require(raw, order)
    mean = raw[1]
    central = [
        sum(math.comb(n, j) * raw[j] * (-mean) ** (n - j) for j in range(n + 1))
        for n in range(2 * order)
    ]
    scale, unit = unit_free(mean, central)
    unit_nodes, condition, used_pinv = _unit_nodes(unit, order)
    nodes = [complex(mean + scale * x) for x in unit_nodes]
    is_real = [abs(x.imag) <= IMAG_ROOT_TOLERANCE * (1.0 + abs(x.real)) for x in unit_nodes]
    real_nodes = [r.real for r, real in zip(nodes, is_real) if real]
    if not real_nodes:
        raise DegenerateRootsError(
            f"PDS({len(nodes)}) produced no real roots within the policy tolerance",
            diagnostics={
                "roots": tuple(nodes),
                "condition_number": condition,
                "used_pseudo_inverse": used_pinv,
            },
        )
    padding = order - len(nodes)
    roots = tuple(nodes) + (complex(mean),) * padding
    retained = sorted(real_nodes + [mean] * padding)
    return PdsResult(
        order=order,
        coefficients=tuple(float(c) for c in np.poly(roots).real),
        roots=roots,
        real_roots_sorted=tuple(retained),
        ground_energy=retained[0],
        condition_number=condition,
        used_pseudo_inverse=used_pinv,
        complex_roots=tuple(r for r, real in zip(nodes, is_real) if not real),
    )


def _unit_nodes(unit: np.ndarray, order: int) -> tuple[np.ndarray, float, bool]:
    """Roots of PDS at the numerical rank (at most order) on unit-free
    moments, with the order-`order` condition number and pseudo-inverse flag.
    M's corner is the unit-free K_0 = 1, so max|lambda| >= 1 and, below
    CONDITION_THRESHOLD, `spectral_solve` keeps every eigenvalue."""
    m, b = build_pds_system(unit, order)
    w, v = symmetric_spectrum(m)
    condition = spectral_condition(w)
    used_pinv = not condition <= CONDITION_THRESHOLD
    rank = int(kept_eigenvalues(w).sum()) if used_pinv else order
    if rank < order:
        return _unit_nodes(unit, rank)[0], condition, True
    return np.roots(np.concatenate([[1.0], spectral_solve(w, v, -b)])), condition, used_pinv
