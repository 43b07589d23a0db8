"""The checked moment record: rows of raw moments K_0..K_max and the
connected moments I_1..I_max they determine.

The estimators read two views of one moment sequence: PDS reads the raw
moments K_n and CMX the connected moments I_k.  `MomentRows` is the one
place that derives the connected moments and checks a sequence, for a stack
of rows or for one; `MomentTable` is its one-row view.  The solvers import
the record from here rather than from `moments`, so they depend on no
moment route.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, isfinite

import numpy as np

from .errors import ContractViolationError


def _connected(raw):
    """I_1..I_max from K_0..K_max by the recursion `MomentRows` states,
    summed in the same order whether each K_k is a float or a column of
    rows."""
    connected = []
    for k in range(1, len(raw)):
        value = raw[k]
        for i in range(0, k - 1):
            value = value - comb(k - 1, i) * connected[i] * raw[k - i - 1]
        connected.append(value)
    return connected


def require_finite(name: str, rows: np.ndarray, start: int) -> None:
    """Raise ContractViolationError naming the first non-finite value of a
    stack of rows, in row order, as `name`_k with k counted from `start`."""
    bad = ~np.isfinite(rows)
    if bad.any():
        row, k = np.argwhere(bad)[0].tolist()
        raise ContractViolationError(f"{name}_{k + start} = {rows[row, k].item()} is not finite")


@dataclass(frozen=True, eq=False)
class MomentRows:
    """Checked moment rows: `raw` holds each row's K_0..K_max and
    `connected` the I_1..I_max they determine, as read-only float64 arrays
    of shape (rows, max + 1) and (rows, max).

    The connected moments are derived once, when the record is built, by

        I_k = K_k - sum_{i=0}^{k-2} C(k-1, i) I_{i+1} K_{k-i-1},

    computed ascending with exact integer binomials, so every row's values
    are bit for bit those of the recursion on that row alone.  Every row must
    start with K_0 = 1 and every moment must be finite: a Hamiltonian whose
    powers overflow float64 is rejected here, before any solver reads it.
    Input that is not a 2-d array of at least two columns raises ValueError
    naming its shape.  The first row that fails raises ValueError when it
    does not start with K_0 = 1, else ContractViolationError naming its
    first non-finite raw moment, else its first non-finite connected moment.
    """

    raw: np.ndarray
    connected: np.ndarray = field(init=False)

    def __post_init__(self):
        raw = np.array(self.raw, dtype=float)
        if raw.ndim != 2 or raw.shape[1] < 2:
            raise ValueError(
                f"moment rows must be 2-d with at least K_0 and K_1 per row, got shape {raw.shape}"
            )
        # a non-finite K_k leaves I_k non-finite, so with every K_0 = 1 the
        # connected moments alone show that a row is finite
        if len(raw) == 1:
            # one row's Python floats give the bits of its column, and are
            # derived and checked faster than a one-row array
            values = raw[0].tolist()
            connected = _connected(values)
            checked = values[0] == 1.0 and all(map(isfinite, connected))
            connected = np.array([connected])
        else:
            # overflow and inf - inf leave non-finite values, reported below
            with np.errstate(over="ignore", invalid="ignore"):
                connected = np.array(_connected(list(raw.T))).T
            checked = (raw[:, 0] == 1.0).all() and np.isfinite(connected).all()
        if not checked:
            for row in range(len(raw)):
                if raw[row, 0] != 1.0:
                    raise ValueError("raw moments must start with K_0 = 1")
                require_finite("raw moment K", raw[row : row + 1], 0)
                require_finite("connected moment I", connected[row : row + 1], 1)
        raw.setflags(write=False)
        connected.setflags(write=False)
        object.__setattr__(self, "raw", raw)
        object.__setattr__(self, "connected", connected)


@dataclass(frozen=True)
class MomentTable:
    """Raw moments K_0..K_max (K_0 = 1) and the connected moments I_1..I_max
    they determine, as tuples: the one-row view of its `MomentRows` record
    `rows`, which derives and checks them and raises its errors."""

    raw: tuple[float, ...]
    connected: tuple[float, ...] = field(init=False)
    rows: MomentRows = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = MomentRows([self.raw])
        object.__setattr__(self, "raw", tuple(rows.raw[0].tolist()))
        object.__setattr__(self, "connected", tuple(rows.connected[0].tolist()))
        object.__setattr__(self, "rows", rows)

    @property
    def max_order(self) -> int:
        return len(self.raw) - 1
