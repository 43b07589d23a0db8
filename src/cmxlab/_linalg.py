"""Small symmetric solves on unit-free moments.

Moment matrices are tiny (order <= ~8), but in the units of H their entries
span many decades.  Every solver therefore shifts its moments by the mean
energy and divides the k-th centred moment by r^k (see `unit_free`), so each
value it feeds a matrix has magnitude at most 1.  Plain float64 LAPACK is then
enough, one cutoff relative to that unit scale (PINV_CUTOFF) decides which
eigenvalues are numerically zero, and results depend neither on the units of
H nor on the platform's extended precision.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SINGULARITY_TOLERANCE = 1e-10
PINV_CUTOFF = 1e-10


def unit_free(mean: float, centred: Sequence[float]) -> tuple[float, np.ndarray]:
    """Scale r and the unit-free moments m_k / r^k of centred moments m_0, m_1, ...

    r = max over k >= 2 of |m_k|^(1/k), so every unit-free value has
    magnitude at most 1, and an energy e found on them maps back to
    mean + r * e.  With no moment of order 2 or more, or when the trial is an
    eigenstate, i.e. |m_2| <= SINGULARITY_TOLERANCE * mean^2, the result is
    r = 1 and the unit-free moments (1, 0, 0, ...) of a sharp energy at the
    mean: m_2 = K_2 - mean^2 is formed by cancellation, so below that floor
    the spread is rounding.  The floor moves with the mean, so a large offset
    turns a small real spread into an eigenstate.
    """
    m = np.asarray(centred, dtype=float)
    if m.size < 3 or abs(m[2]) <= SINGULARITY_TOLERANCE * mean**2:
        return 1.0, np.eye(1, m.size)[0]
    k = np.arange(m.size)
    scale = float(np.max(np.abs(m[2:]) ** (1.0 / k[2:])))
    return scale, m / scale**k


def symmetric_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and column eigenvectors of a real symmetric matrix."""
    return np.linalg.eigh(np.asarray(matrix, dtype=float))


def spectral_condition(eigenvalues: np.ndarray) -> float:
    """max|lambda| / min|lambda|; inf for a singular (or empty) spectrum."""
    magnitudes = np.abs(eigenvalues)
    if magnitudes.size == 0 or magnitudes.min() == 0.0:
        return float("inf")
    return float(magnitudes.max() / magnitudes.min())


def kept_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues with |lambda| > PINV_CUTOFF * max(1, max|lambda|).

    On a unit-free matrix the 1 is the moment scale, so a matrix whose every
    eigenvalue is tiny is numerically zero even at a perfect condition number.
    """
    magnitudes = np.abs(eigenvalues)
    return magnitudes > PINV_CUTOFF * max(1.0, float(magnitudes.max(initial=0.0)))


def spectral_solve(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Apply the (pseudo)inverse of a spectrum to a vector, dropping the
    eigenvalues that `kept_eigenvalues` rejects."""
    keep = kept_eigenvalues(eigenvalues)
    inverse = np.divide(1.0, eigenvalues, out=np.zeros_like(eigenvalues), where=keep)
    return eigenvectors @ (inverse * (eigenvectors.T @ rhs))
