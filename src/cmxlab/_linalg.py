"""Small symmetric solves on unit-free moments, for stacks of moment rows.

Every function here acts on a stack: its leading axis runs over rows (one
moment table each), and each LAPACK step is one call for the whole stack.
A single table is a stack of one row, so a scalar solve and a stacked one
run the same code and give the same bits.

Moment matrices are tiny (order <= ~8), but in the units of H their entries
span many decades.  Every solver therefore shifts its moments by the mean
energy and divides the k-th centred moment by r^k (see `unit_free`), so each
value it feeds a matrix has magnitude at most 1.  Plain float64 LAPACK is then
enough, one cutoff relative to that unit scale (PINV_CUTOFF) decides which
eigenvalues are numerically zero, and results depend neither on the units of
H nor on the platform's extended precision.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

SINGULARITY_TOLERANCE = 1e-10
PINV_CUTOFF = 1e-10


def float_powers(base: np.ndarray, exponents: Sequence[int]) -> np.ndarray:
    """The table base[r] ** exponents[e] by Python's float power (the C
    library's pow).  numpy's power rounds differently in the last bit for a
    few percent of inputs (it may take a SIMD path), so the solvers use this
    wherever their formulas always took Python's power."""
    table = [[b ** e for e in exponents] for b in base.tolist()]
    return np.array(table, dtype=float).reshape(len(base), len(exponents))


@functools.cache
def hankel_index(size: int) -> np.ndarray:
    """The read-only index table i + j, i, j = 0..size-1, from which every
    Hankel moment matrix is gathered."""
    index = np.add.outer(np.arange(size), np.arange(size))
    index.setflags(write=False)
    return index


def unit_free(mean: np.ndarray, centred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scales r and unit-free moments m_k / r^k of rows of centred moments
    m_0, m_1, ..., one row per entry of `mean`.

    r = max over k >= 2 of |m_k|^(1/k), so every unit-free value has
    magnitude at most 1, and an energy e found on them maps back to
    mean + r * e.  With no moment of order 2 or more, or when the trial is an
    eigenstate, i.e. |m_2| <= SINGULARITY_TOLERANCE * mean^2, the row gets
    r = 1 and the unit-free moments (1, 0, 0, ...) of a sharp energy at the
    mean: m_2 = K_2 - mean^2 is formed by cancellation, so below that floor
    the spread is rounding.  The floor moves with the mean, so a large offset
    turns a small real spread into an eigenstate.
    """
    m = np.asarray(centred, dtype=float)
    scale = np.ones(len(m))
    if m.shape[1] < 3:
        unit = np.zeros_like(m)
        unit[:, 0] = 1.0
        return scale, unit
    eigenstate = np.abs(m[:, 2]) <= SINGULARITY_TOLERANCE * float_powers(mean, (2,))[:, 0]
    k = np.arange(m.shape[1])
    spread = ~eigenstate
    scale[spread] = np.max(np.abs(m[spread, 2:]) ** (1.0 / k[2:]), axis=1)
    unit = m / scale[:, None] ** k
    unit[eigenstate] = 0.0
    unit[eigenstate, 0] = 1.0
    return scale, unit


def symmetric_spectrum(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and column eigenvectors of a stack of real
    symmetric matrices."""
    return np.linalg.eigh(np.asarray(matrix, dtype=float))


def spectral_condition(eigenvalues: np.ndarray) -> np.ndarray:
    """max|lambda| / min|lambda| per row of spectra; inf for a singular (or
    empty) spectrum."""
    magnitudes = np.abs(eigenvalues)
    if magnitudes.shape[-1] == 0:
        return np.full(magnitudes.shape[:-1], np.inf)
    smallest = magnitudes.min(axis=-1)
    condition = np.full(smallest.shape, np.inf)
    return np.divide(magnitudes.max(axis=-1), smallest, out=condition, where=smallest != 0.0)


def kept_eigenvalues(eigenvalues: np.ndarray) -> np.ndarray:
    """Mask of the eigenvalues with |lambda| > PINV_CUTOFF * max(1, max|lambda|)
    in each row of spectra.

    On a unit-free matrix the 1 is the moment scale, so a matrix whose every
    eigenvalue is tiny is numerically zero even at a perfect condition number.
    """
    magnitudes = np.abs(eigenvalues)
    largest = magnitudes.max(axis=-1, initial=0.0, keepdims=True)
    # a NaN largest gives the cutoff of the moment scale, as Python's max did
    return magnitudes > PINV_CUTOFF * np.where(largest > 1.0, largest, 1.0)


def spectral_solve(
    eigenvalues: np.ndarray, eigenvectors: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Apply the (pseudo)inverse of each spectrum to its row of `rhs`,
    dropping the eigenvalues that `kept_eigenvalues` rejects.

    Both products are matrix-vector matmuls, one BLAS gemv per row, so a
    row's result does not depend on the rows stacked with it."""
    keep = kept_eigenvalues(eigenvalues)
    inverse = np.divide(1.0, eigenvalues, out=np.zeros_like(eigenvalues), where=keep)
    projected = np.swapaxes(eigenvectors, -1, -2) @ rhs[..., None]
    return (eigenvectors @ (inverse[..., None] * projected))[..., 0]
