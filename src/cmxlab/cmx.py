"""Connected-moments expansion solvers.

Two resummations of the Horn-Weinstein series are provided: the Cioslowski
nested form, computed from Hankel determinants of the connected moments, and
the Knowles generalized Pade form, computed as a moment linear system.  They
are equal at every order whose denominators are usable.  Both solve on
unit-free moments, so scaling H by c and shifting it by d maps every energy
to c E + d with the same flags, as long as the shift leaves the spread above
the eigenstate floor of `_linalg.unit_free`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._linalg import (
    SINGULARITY_TOLERANCE,
    float_powers,
    hankel_index,
    kept_eigenvalues,
    spectral_condition,
    spectral_solve,
    symmetric_spectrum,
    unit_free,
)
from .errors import InsufficientMomentsError
from .moments import MomentTable


@dataclass(frozen=True)
class CmxResult:
    """Energy of one CMX variant with its denominator diagnostics.

    energies holds the partial expansion E(1..K); on a singular denominator
    the expansion freezes at the last finite partial sum and singular_flag is
    set, so sweep outputs never carry NaN.
    """

    method: str
    order: int
    energy: float
    energies: tuple[float, ...]
    denominators: tuple[tuple[str, float], ...]
    singular_flag: bool
    condition_number: float | None = None


def _connected_values(moments: MomentTable | Sequence[float]) -> list[float]:
    if isinstance(moments, MomentTable):
        return list(moments.connected)
    return [float(v) for v in moments]


def _rows(ivals: np.ndarray, order: int) -> np.ndarray:
    """The connected-moment rows as float64, checked to serve `order`."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    ivals = np.asarray(ivals, dtype=float)
    count = 2 * order - 1
    if ivals.shape[1] < count:
        raise InsufficientMomentsError(
            f"order {order} needs I_1..I_{count}, have {ivals.shape[1]}"
        )
    return ivals


def _unit_free(ivals: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Scales r and the unit-free I_1..I_(2K-1) (I_1 -> 0, I_k -> I_k / r^k)
    of each row that order K reads, as `_linalg.unit_free` makes them: for
    an eigenstate, or at first order, r = 1 and every unit-free moment is 0."""
    rows = len(ivals)
    centred = np.concatenate(
        [np.ones((rows, 1)), np.zeros((rows, 1)), ivals[:, 1 : 2 * order - 1]], axis=1
    )
    scale, values = unit_free(ivals[:, 0], centred)
    return scale, values[:, 1:]


def _hankel_dets(ivals: np.ndarray, k: int, count: int) -> np.ndarray:
    """S[k,m] = det[I_(k+i+j)] over i, j = 0..m-1, for m = 1..count, of each
    row: one stacked determinant call per m."""
    dets = np.empty((len(ivals), count))
    for m in range(1, count + 1):
        dets[:, m - 1] = np.linalg.det(ivals[:, k - 1 + hankel_index(m)])
    return dets


@dataclass(frozen=True)
class CmxRows:
    """One CMX variant of every row of a stack of connected moments:
    the partial expansions E(1..K), one row each, their singular flags and,
    for Knowles, the condition numbers and det(A[K-1]) of the unit-free A."""

    energies: np.ndarray
    denominators: np.ndarray
    singular_flag: np.ndarray
    condition_number: np.ndarray | None = None


def cioslowski_rows(ivals: np.ndarray, order: int) -> CmxRows:
    """Cioslowski CMX(K) of each row of connected moments I_1, I_2, ...,
    from the Hankel determinants S[k,m] = det[I_(k+i+j)].

    The nested expansion telescopes to

        E(K) = I_1 - sum_{m=1}^{K-1} S[2,m]^2 / (S[3,m-1] S[3,m]),  S[3,0] = 1,

    which equals Knowles' I_1 - b^T A^-1 b, so the denominators that can
    poison the expansion are exactly the S[3,m] = det(A[m]); they are
    returned as the columns of `denominators`.  They are taken on the
    unit-free moments (see `_linalg.unit_free`), where SINGULARITY_TOLERANCE
    is dimensionless; an eigenstate trial is singular at every order >= 2
    and all its S[3,m] are 0.  On a singular denominator a row's expansion
    freezes at its last finite partial sum.
    """
    ivals = _rows(ivals, order)
    scale, unit = _unit_free(ivals, order)
    s2 = _hankel_dets(unit, 2, order - 1)
    s3 = np.concatenate([np.ones((len(ivals), 1)), _hankel_dets(unit, 3, order - 1)], axis=1)
    # the telescoped terms, with -0.0, which adds nothing, from the first
    # singular S[3,m] on: there the expansion freezes at its last partial sum
    frozen = np.logical_or.accumulate(np.abs(s3[:, 1:]) < SINGULARITY_TOLERANCE, axis=1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        terms = -(float_powers(s2.ravel(), (2,)).reshape(s2.shape) / (s3[:, :-1] * s3[:, 1:]))
    terms[frozen] = -0.0
    # summed in the recursion's order; the + 0.0 turns a -0.0 sum into the
    # 0.0 of a sum started from 0
    correction = np.cumsum(terms, axis=1) + 0.0
    # a row frozen from m = 1 on keeps I_1 itself
    partial = np.where(frozen[:, :1], ivals[:, :1], ivals[:, :1] + scale[:, None] * correction)
    return CmxRows(np.concatenate([ivals[:, :1], partial], axis=1), s3[:, 1:], frozen.any(axis=1))


def knowles_rows(ivals: np.ndarray, order: int) -> CmxRows:
    """Knowles generalized-Pade CMX(K) of each row of connected moments:
    E = I_1 - b^T A^-1 b with b_i = I_(i+1) and A_ij = I_(i+j+1) for
    i,j = 1..K-1, one stacked eigensolve per partial order.

    The solve runs in float64 on the unit-free moments (see
    `_linalg.unit_free`), so the reported condition number and det(A) are
    those of the unit-free A.  Eigenvalues at or below `_linalg.PINV_CUTOFF`
    times max(1, max|lambda|) are truncated and flag the row singular; the
    1 is the moment scale, because a uniformly tiny A has a perfect condition
    number yet still poisons the quadratic form.  An eigenstate trial is
    singular at every order >= 2, with E = I_1 and det(A) reported as 0.
    First order reads no matrix: E = I_1, with no flag or condition number.
    """
    ivals = _rows(ivals, order)
    if order == 1:
        return CmxRows(ivals[:, :1], np.empty((len(ivals), 0)), np.zeros(len(ivals), bool))
    scale, unit = _unit_free(ivals, order)
    energies = np.empty((len(ivals), order))
    energies[:, 0] = ivals[:, 0]
    for k in range(2, order + 1):
        b = unit[:, 1:k]
        w, v = symmetric_spectrum(unit[:, 2 + hankel_index(k - 1)])
        quadratic = (b[:, None, :] @ spectral_solve(w, v, b)[:, :, None])[:, 0, 0]
        energies[:, k - 1] = ivals[:, 0] - scale * quadratic
    return CmxRows(
        energies,
        np.prod(w, axis=1)[:, None],
        ~kept_eigenvalues(w).all(axis=1),
        spectral_condition(w),
    )


def cmx_cioslowski(moments: MomentTable | Sequence[float], order: int) -> CmxResult:
    """Cioslowski CMX(K) of one moment table: the one-row case of
    `cioslowski_rows`, with its S[3,m] as the denominators."""
    rows = cioslowski_rows(np.array([_connected_values(moments)]), order)
    return _one_row("cioslowski", order, rows, [f"S[3,{m}]" for m in range(1, order)])


def cmx_knowles(moments: MomentTable | Sequence[float], order: int) -> CmxResult:
    """Knowles CMX(K) of one moment table: the one-row case of
    `knowles_rows`, with det(A[K-1]) as its denominator from order 2 on."""
    rows = knowles_rows(np.array([_connected_values(moments)]), order)
    return _one_row("knowles", order, rows, [f"det(A[{order - 1}])"])


def _one_row(method: str, order: int, rows: CmxRows, labels: list[str]) -> CmxResult:
    energies = rows.energies[0].tolist()
    condition = rows.condition_number
    return CmxResult(
        method=method,
        order=order,
        energy=energies[-1],
        energies=tuple(energies),
        denominators=tuple(zip(labels, rows.denominators[0].tolist())),
        singular_flag=bool(rows.singular_flag[0]),
        condition_number=None if condition is None else float(condition[0]),
    )


@dataclass(frozen=True)
class SingularityFinding:
    label: str
    value: float
    affected: str


def denominator_findings(
    denominators: Sequence[tuple[str, float]],
    tolerance: float = SINGULARITY_TOLERANCE,
) -> tuple[SingularityFinding, ...]:
    """Near-zero denominators and the methods/orders each would poison,
    from the S[3,m] denominators of a `CmxResult` of `cmx_cioslowski`.

    They are taken on the unit-free moments and are also Knowles' det(A[m])
    (S[3,1] = I_3 for the closed forms), so the tolerance is dimensionless.
    Feeds the CLI hint for choosing an expansion that avoids small
    denominators; automatic selection stays off.
    """
    findings = []
    for m, (label, value) in enumerate(denominators, start=1):
        if abs(value) < tolerance:
            affected = f"cmx-cioslowski({m + 1}), cmx-knowles({m + 1})"
            if m == 1:
                affected += ", cmx closed forms (2, 3)"
            findings.append(SingularityFinding(label, value, affected))
    return tuple(findings)
