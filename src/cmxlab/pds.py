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

Every solve reads raw moments K_0, K_1, ... only: `solve_pds_rows` a stack of
rows, such as `MomentRows.raw`, and `solve_pds` and `build_pds_system` one
sequence, such as `MomentTable.raw`, which they check through `MomentRows`
and so reject with its errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from ._linalg import (
    float_powers,
    hankel_index,
    kept_eigenvalues,
    spectral_condition,
    spectral_solve,
    symmetric_spectrum,
    unit_free,
)
from ._record import MomentRows
from .errors import DegenerateRootsError, InsufficientMomentsError

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
    roots: tuple[complex, ...]
    real_roots_sorted: tuple[float, ...]
    ground_energy: float
    condition_number: float
    used_pseudo_inverse: bool
    complex_roots: tuple[complex, ...] = ()

    @cached_property
    def coefficients(self) -> tuple[float, ...]:
        """The monic polynomial's coefficients, highest power first, in the
        units of H; computed from `roots` on first read."""
        return tuple(float(c) for c in np.poly(self.roots).real)


def _require(count: int, order: int) -> None:
    """Check that `count` raw moments K_0.. serve PDS(order)."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    if count < 2 * order:
        raise InsufficientMomentsError(
            f"PDS({order}) needs K_0..K_{2 * order - 1}, have K_0..K_{count - 1}"
        )


def _hankel(raw: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """M_ij = K_(2n-(i+j)) and b_i = K_(2n-i), i, j = 1..n, for a row of
    moments or for each row of a stack: b is column j = 0 of one gather."""
    system = raw[..., 2 * order - hankel_index(order + 1)[1:]]
    return system[..., 1:], system[..., 0]


def build_pds_system(raw: Sequence[float], order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hankel matrix M_ij = K_(2n-(i+j)) and vector b_i = K_(2n-i) of
    one sequence of raw moments K_0, K_1, ..., checked by `MomentRows`."""
    row = MomentRows([raw]).raw[0]
    _require(len(row), order)
    return _hankel(row, order)


@dataclass(frozen=True)
class PdsRows:
    """PDS(order) of every row of a stack of raw moments, as arrays over
    the rows (see `solve_pds_rows`).

    Row r has `nodes[r]` roots from its solve, in `roots[r, :nodes[r]]`,
    and padding roots at its mean energy K_1 after them; `real` marks the
    roots the complex-root policy keeps, padding included.  A row none of
    whose solved roots is real is `degenerate`, with a NaN ground energy.
    """

    roots: np.ndarray
    nodes: np.ndarray
    real: np.ndarray
    degenerate: np.ndarray
    ground_energy: np.ndarray
    condition_number: np.ndarray
    used_pseudo_inverse: np.ndarray


def solve_pds_rows(raw: np.ndarray, order: int) -> PdsRows:
    """PDS(order) of each row of raw moments K_0, K_1, ... (K_0 = 1), with
    each LAPACK step taken once for the whole stack.

    Each row's system is built from its unit-free central moments (see
    `_linalg.unit_free`) and solved in float64; its roots x map back to
    K_1 + r x.  The reported condition number is that of the unit-free M.  A
    condition number beyond CONDITION_THRESHOLD means the Krylov chain
    saturated below the requested order; the row's system is then reduced to
    its numerical rank (the eigenvalues `_linalg.kept_eigenvalues` keeps),
    whose roots are the genuine nodes, and the polynomial is padded with
    roots at the mean energy K_1.  The padding is deterministic,
    shift-covariant, and always inside the node hull, unlike the arbitrary
    extra root a raw minimal-norm solve would add.  An eigenstate trial, and
    every first-order solve, takes the same path: `unit_free` encodes it as a
    sharp energy at K_1, so M has rank 1, its one root lands at K_1 and the
    padding fills the rest, with an infinite condition number from order 2 on.

    A root counts as real when its unit-free node x has
    |Im x| <= IMAG_ROOT_TOLERANCE * (1 + |Re x|), so the policy, like the
    rest of the solve, does not depend on the units of H.  The ground energy
    is the lowest real root.
    """
    raw = np.asarray(raw, dtype=float)
    _require(raw.shape[1], order)
    mean = raw[:, 1]
    scale, unit = unit_free(mean, _central(raw, 2 * order))
    x, nodes, condition, used_pinv = _unit_nodes(unit, order)
    solved = np.arange(order) < nodes[:, None]
    real = ~solved | (np.abs(x.imag) <= IMAG_ROOT_TOLERANCE * (1.0 + np.abs(x.real)))
    degenerate = ~(real & solved).any(axis=1)
    roots = np.where(solved, mean[:, None] + scale[:, None] * x, mean[:, None])
    # the first lowest real root, which a stable sort of them puts first
    candidates = np.where(real, roots.real, np.inf)
    ground = candidates[np.arange(len(raw)), candidates.argmin(axis=1)]
    ground[degenerate] = np.nan
    return PdsRows(roots, nodes, real, degenerate, ground, condition, used_pinv)


def solve_pds(raw: Sequence[float], order: int) -> PdsResult:
    """Solve M a = -b, root the polynomial, and apply the complex-root
    policy to one sequence of raw moments K_0, K_1, ..., checked by
    `MomentRows`: the one-row case of `solve_pds_rows`.

    `coefficients` are those of the mapped roots, in the units of H.  A
    solve none of whose roots is real raises DegenerateRootsError with the
    roots, condition number and pseudo-inverse flag as diagnostics.
    """
    rows = solve_pds_rows(MomentRows([raw]).raw, order)
    roots = rows.roots[0].tolist()
    nodes, real = int(rows.nodes[0]), rows.real[0].tolist()
    condition = float(rows.condition_number[0])
    used_pinv = bool(rows.used_pseudo_inverse[0])
    if rows.degenerate[0]:
        raise DegenerateRootsError(
            f"PDS({nodes}) produced no real roots within the policy tolerance",
            diagnostics={
                "roots": tuple(roots[:nodes]),
                "condition_number": condition,
                "used_pseudo_inverse": used_pinv,
            },
        )
    return PdsResult(
        order=order,
        roots=tuple(roots),
        real_roots_sorted=tuple(sorted(r.real for r, keep in zip(roots, real) if keep)),
        ground_energy=float(rows.ground_energy[0]),
        condition_number=condition,
        used_pseudo_inverse=used_pinv,
        complex_roots=tuple(r for r, keep in zip(roots, real) if not keep),
    )


@functools.cache
def _central_plan(count: int) -> tuple[np.ndarray, np.ndarray]:
    """C(n, j) and the power n - j of -K_1 that term j of central moment n
    reads, for n, j < count (0 where j > n), read-only."""
    n, j = np.indices((count, count))
    binomial = np.array([[math.comb(a, b) for b in range(count)] for a in range(count)],
                        dtype=float)
    power = np.maximum(n - j, 0)
    for table in (binomial, power):
        table.setflags(write=False)
    return binomial, power


def _central(raw: np.ndarray, count: int) -> np.ndarray:
    """Central moments m_n = sum_j C(n, j) K_j (-K_1)^(n-j), n < count, of
    each row, added in ascending j from 0 (with Python's power), as the
    scalar formula added them."""
    binomial, power = _central_plan(count)
    shift = float_powers(-raw[:, 1], range(count))
    terms = binomial * raw[:, None, :count] * shift[:, power]
    # partial sum n stops before the terms with j > n; the + 0.0 turns a
    # -0.0 sum into the 0.0 of a sum started from 0
    return np.cumsum(terms, axis=2).diagonal(axis1=1, axis2=2) + 0.0


def _unit_nodes(
    unit: np.ndarray, order: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Roots of PDS at each row's numerical rank (at most order) on
    unit-free moments, the number of them, and the order-`order` condition
    numbers and pseudo-inverse flags.  Rows that saturate are solved again,
    grouped by rank.  M's corner is the unit-free K_0 = 1, so
    max|lambda| >= 1 and, below CONDITION_THRESHOLD, `spectral_solve` keeps
    every eigenvalue."""
    m, b = _hankel(unit, order)
    w, v = symmetric_spectrum(m)
    condition = spectral_condition(w)
    used_pinv = ~(condition <= CONDITION_THRESHOLD)
    rank = np.full(len(unit), order)
    if used_pinv.any():
        rank[used_pinv] = kept_eigenvalues(w[used_pinv]).sum(axis=1)
    full = rank == order
    if full.all():
        return _roots(spectral_solve(w, v, -b)), rank, condition, used_pinv
    x = np.zeros((len(unit), order), dtype=complex)
    if full.any():
        x[full] = _roots(spectral_solve(w[full], v[full], -b[full]))
    for reduced in sorted(set(rank[~full].tolist())):
        rows = rank == reduced
        x[rows, :reduced], rank[rows] = _unit_nodes(unit[rows], reduced)[:2]
    return x, rank, condition, used_pinv


def _roots(coefficients: np.ndarray) -> np.ndarray:
    """Roots of each monic x^n + c_1 x^(n-1) + ... + c_n as `np.roots` finds
    them: eigenvalues of the companion matrix of the polynomial with its
    trailing zero coefficients stripped, then one exact 0 per stripped
    coefficient.  Rows of one degree share one stacked `eigvals` call."""
    count, n = coefficients.shape
    if n and (coefficients[:, -1] != 0.0).all():
        return _companion_roots(coefficients).astype(complex)
    roots = np.zeros((count, n), dtype=complex)
    nonzero = coefficients != 0.0
    degree = np.where(nonzero.any(axis=1), n - nonzero[:, ::-1].argmax(axis=1), 0)
    for d in sorted(set(degree.tolist()) - {0}):
        rows = degree == d
        roots[rows, :d] = _companion_roots(coefficients[rows, :d])
    return roots


def _companion_roots(coefficients: np.ndarray) -> np.ndarray:
    """Eigenvalues of the companion matrix `np.roots` builds for each
    monic x^n + c_1 x^(n-1) + ... + c_n."""
    count, n = coefficients.shape
    companion = np.zeros((count, n, n))
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, 0, :] = -coefficients / 1.0
    return np.linalg.eigvals(companion)
