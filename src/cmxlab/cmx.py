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


def _require(values: list[float], count: int, order: int) -> None:
    if len(values) < count:
        raise InsufficientMomentsError(
            f"order {order} needs I_1..I_{count}, have {len(values)}"
        )


def _unit_free(ivals: list[float], order: int) -> tuple[float, list[float]]:
    """Scale r and the unit-free I_1..I_(2K-1) (I_1 -> 0, I_k -> I_k / r^k)
    that order K reads, as `_linalg.unit_free` makes them: for an eigenstate,
    or at first order, r = 1 and every unit-free moment is 0."""
    scale, values = unit_free(ivals[0], [1.0, 0.0, *ivals[1 : 2 * order - 1]])
    return scale, values[1:].tolist()


def _hankel_dets(ivals: list[float], k: int, count: int) -> list[float]:
    """S[k,m] = det[I_(k+i+j)] over i, j = 0..m-1, for m = 1..count."""
    return [
        float(np.linalg.det([[ivals[k + i + j - 1] for j in range(m)] for i in range(m)]))
        for m in range(1, count + 1)
    ]


def cmx_cioslowski(moments: MomentTable | Sequence[float], order: int) -> CmxResult:
    """Cioslowski CMX(K) from the Hankel determinants S[k,m] = det[I_(k+i+j)].

    The nested expansion telescopes to

        E(K) = I_1 - sum_{m=1}^{K-1} S[2,m]^2 / (S[3,m-1] S[3,m]),  S[3,0] = 1,

    which equals Knowles' I_1 - b^T A^-1 b, so the denominators that can
    poison the expansion are exactly the S[3,m] = det(A[m]).  They are taken
    on the unit-free moments (see `_linalg.unit_free`), where
    SINGULARITY_TOLERANCE is dimensionless; an eigenstate trial is singular
    at every order >= 2 and all S[3,m] are reported as 0.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    ivals = _connected_values(moments)
    _require(ivals, 2 * order - 1, order)
    scale, unit = _unit_free(ivals, order)
    s2 = _hankel_dets(unit, 2, order - 1)
    s3 = [1.0, *_hankel_dets(unit, 3, order - 1)]

    energies = [ivals[0]]
    denominators: list[tuple[str, float]] = []
    singular = False
    correction = 0.0
    for m in range(1, order):
        denominators.append((f"S[3,{m}]", s3[m]))
        if singular or abs(s3[m]) < SINGULARITY_TOLERANCE:
            singular = True
            energies.append(energies[-1])
            continue
        correction -= s2[m - 1] ** 2 / (s3[m - 1] * s3[m])
        energies.append(ivals[0] + scale * correction)
    return CmxResult(
        method="cioslowski",
        order=order,
        energy=energies[-1],
        energies=tuple(energies),
        denominators=tuple(denominators),
        singular_flag=singular,
    )


def cmx_knowles(moments: MomentTable | Sequence[float], order: int) -> CmxResult:
    """Knowles generalized-Pade CMX(K): E = I_1 - b^T A^-1 b with
    b_i = I_(i+1) and A_ij = I_(i+j+1) for i,j = 1..K-1.

    The solve runs in float64 on the unit-free moments (see
    `_linalg.unit_free`), so the reported condition number and det(A) are
    those of the unit-free A.  Eigenvalues at or below `_linalg.PINV_CUTOFF`
    times max(1, max|lambda|) are truncated and flag the result singular; the
    1 is the moment scale, because a uniformly tiny A has a perfect condition
    number yet still poisons the quadratic form.  An eigenstate trial is
    singular at every order >= 2, with E = I_1 and det(A) reported as 0.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    ivals = _connected_values(moments)
    _require(ivals, 2 * order - 1, order)
    if order == 1:
        return CmxResult("knowles", 1, ivals[0], (ivals[0],), (), False)
    scale, unit = _unit_free(ivals, order)

    energies: list[float] = [ivals[0]]
    for k in range(2, order + 1):
        b = np.array(unit[1:k])
        a = np.array([[unit[i + j + 2] for j in range(k - 1)] for i in range(k - 1)])
        w, v = symmetric_spectrum(a)
        energies.append(ivals[0] - scale * float(b @ spectral_solve(w, v, b)))
    return CmxResult(
        method="knowles",
        order=order,
        energy=energies[-1],
        energies=tuple(energies),
        denominators=((f"det(A[{order - 1}])", float(np.prod(w))),),
        singular_flag=not kept_eigenvalues(w).all(),
        condition_number=spectral_condition(w),
    )


@dataclass(frozen=True)
class SingularityFinding:
    label: str
    value: float
    affected: str


def singularity_report(
    moments: MomentTable | Sequence[float],
    tolerance: float = SINGULARITY_TOLERANCE,
) -> tuple[SingularityFinding, ...]:
    """Near-zero denominators and the methods/orders each would poison.

    The denominators are those `cmx_cioslowski` reports at the highest
    order the moments allow: the S[3,m] on the unit-free moments, which are
    also Knowles' det(A[m]) (S[3,1] = I_3 for the closed forms),
    so the tolerance is dimensionless.  Feeds the CLI hint for choosing an
    expansion that avoids small denominators; automatic selection stays off.
    """
    ivals = _connected_values(moments)
    max_order = (len(ivals) + 1) // 2
    if max_order < 2:
        return ()
    return denominator_findings(cmx_cioslowski(ivals, max_order).denominators, tolerance)


def denominator_findings(
    denominators: Sequence[tuple[str, float]],
    tolerance: float = SINGULARITY_TOLERANCE,
) -> tuple[SingularityFinding, ...]:
    """The findings of `singularity_report` from the S[3,m] denominators of
    a `CmxResult` of `cmx_cioslowski`, so a caller that already holds one
    need not take the determinants again."""
    findings = []
    for m, (label, value) in enumerate(denominators, start=1):
        if abs(value) < tolerance:
            affected = f"cmx-cioslowski({m + 1}), cmx-knowles({m + 1})"
            if m == 1:
                affected += ", cmx closed forms (2, 3)"
            findings.append(SingularityFinding(label, value, affected))
    return tuple(findings)
