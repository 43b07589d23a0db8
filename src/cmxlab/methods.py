"""Uniform method selection: parse "pds:3"-style specs and evaluate any
supported estimator on a checked moment record.

`evaluate_rows` takes a `MomentRows` record and hands each solver the view it
reads: PDS the raw rows K_0..K_max, every other method the connected rows
I_1..I_max.  `evaluate_method` takes a `MomentTable` and evaluates its
one-row record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cmx import cioslowski_rows, knowles_rows
from .errors import UsageError
from .moments import MomentRows, MomentTable, hw_energy_rows
from .pds import solve_pds_rows

_CANONICAL_NAMES = {
    "cmx": "cmx-cioslowski",
    "cioslowski": "cmx-cioslowski",
    "cmx-cioslowski": "cmx-cioslowski",
    "knowles": "cmx-knowles",
    "cmx-knowles": "cmx-knowles",
    "pds": "pds",
    "hw-series": "hw-series",
    "hw": "hw-series",
    "expectation": "expectation",
    "energy": "expectation",
}


@dataclass(frozen=True)
class MethodSpec:
    """One estimator: a method name, expansion order, and (for the
    Horn-Weinstein series) the evaluation point tau."""

    name: str
    order: int
    tau: float | None = None

    def __str__(self) -> str:
        if self.name == "hw-series":
            return f"{self.name}:{self.order}:{self.tau:g}"
        return f"{self.name}:{self.order}"

    @property
    def required_max_order(self) -> int:
        """Highest raw moment K_n the method consumes."""
        if self.name in ("pds", "cmx-cioslowski", "cmx-knowles"):
            return 2 * self.order - 1
        if self.name == "hw-series":
            return self.order + 1
        return 1  # expectation


def parse_method(text: str) -> MethodSpec:
    """Parse "name:order" (or "hw-series:order:tau"); bare names get order 1
    where that makes sense."""
    parts = text.strip().split(":")
    raw_name = parts[0].strip().lower()
    name = _CANONICAL_NAMES.get(raw_name)
    if name is None:
        raise UsageError(
            f"unknown method {raw_name!r}; choose from "
            "cmx-cioslowski, cmx-knowles, pds, hw-series, expectation"
        )
    if name == "expectation":
        if len(parts) > 1:
            raise UsageError("expectation takes no order")
        return MethodSpec(name, 1)
    if name == "hw-series":
        if len(parts) != 3:
            raise UsageError("hw-series needs order and tau, e.g. hw-series:4:0.5")
        try:
            order, tau = int(parts[1]), float(parts[2])
        except ValueError:
            raise UsageError(f"bad hw-series spec {text!r}") from None
        if order < 0 or not 0.0 <= tau < math.inf:
            raise UsageError("hw-series order must be >= 0 and tau finite and >= 0")
        return MethodSpec(name, order, tau)
    if len(parts) != 2:
        raise UsageError(f"method {raw_name} needs an order, e.g. {raw_name}:2")
    try:
        order = int(parts[1])
    except ValueError:
        raise UsageError(f"bad order in method spec {text!r}") from None
    if order < 1:
        raise UsageError(f"order must be >= 1, got {order}")
    return MethodSpec(name, order)


def parse_method_list(text: str) -> list[MethodSpec]:
    specs = [parse_method(piece) for piece in text.split(",") if piece.strip()]
    if not specs:
        raise UsageError("at least one method is required")
    return specs


@dataclass(frozen=True)
class MethodValue:
    """Evaluation outcome in the shape the CSV writer wants."""

    energy: float
    singular_flag: bool = False
    condition_number: float = math.nan
    used_pseudo_inverse: bool = False


def evaluate_rows(
    spec: MethodSpec, rows: MomentRows
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate one estimator on every row of a checked moment record.

    Returns four arrays over the rows: energies, singular flags, condition
    numbers (NaN where the method has none) and pseudo-inverse flags, each
    row bit for bit what `evaluate_method` gives on `MomentTable(row)`.  A
    row whose PDS roots are all complex gets a NaN energy and the singular
    flag, as in `evaluate_method`.  The record has checked every moment;
    this raises InsufficientMomentsError when the rows are too short for the
    method, or ValueError for a negative hw-series tau.
    """
    raw, connected = rows.raw, rows.connected
    singular = np.zeros(len(raw), dtype=bool)
    condition = np.full(len(raw), math.nan)
    pinv = np.zeros(len(raw), dtype=bool)
    if spec.name == "expectation":
        energy = connected[:, 0]
    elif spec.name == "cmx-cioslowski":
        result = cioslowski_rows(connected, spec.order)
        energy, singular = result.energies[:, -1], result.singular_flag
    elif spec.name == "cmx-knowles":
        result = knowles_rows(connected, spec.order)
        energy, singular = result.energies[:, -1], result.singular_flag
        if result.condition_number is not None:
            condition = result.condition_number
    elif spec.name == "hw-series":
        energy = hw_energy_rows(connected, spec.tau, spec.order)
    else:
        # a row whose roots are all complex stays a row, flagged
        result = solve_pds_rows(raw, spec.order)
        energy, singular = result.ground_energy, result.degenerate
        condition, pinv = result.condition_number, result.used_pseudo_inverse
    return energy, singular, condition, pinv


def evaluate_method(spec: MethodSpec, table: MomentTable) -> MethodValue:
    """Evaluate one estimator on a moment table: `evaluate_rows` on the
    table's one-row record."""
    energy, singular, condition, pinv = evaluate_rows(spec, table.rows)
    return MethodValue(energy.item(), singular.item(), condition.item(), pinv.item())
