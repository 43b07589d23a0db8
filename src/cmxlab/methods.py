"""Uniform method selection: parse "pds:3"-style specs and evaluate any
supported estimator on a moment table."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cmx import cmx_cioslowski, cmx_knowles
from .errors import DegenerateRootsError, UsageError
from .moments import MomentTable, hw_energy_series
from .pds import solve_pds

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


def evaluate_method(spec: MethodSpec, table: MomentTable) -> MethodValue:
    """Evaluate one estimator on a moment table."""
    if spec.name == "expectation":
        return MethodValue(energy=table.connected[0])
    if spec.name == "cmx-cioslowski":
        result = cmx_cioslowski(table, spec.order)
        return MethodValue(result.energy, result.singular_flag)
    if spec.name == "cmx-knowles":
        result = cmx_knowles(table, spec.order)
        condition = result.condition_number if result.condition_number is not None else math.nan
        return MethodValue(result.energy, result.singular_flag, condition)
    if spec.name == "hw-series":
        return MethodValue(energy=hw_energy_series(table, spec.tau, spec.order))
    try:
        result = solve_pds(table, spec.order)
    except DegenerateRootsError as err:
        # all roots complex: the row survives with the flag set
        condition = float(err.diagnostics.get("condition_number", math.nan))
        pinv = bool(err.diagnostics.get("used_pseudo_inverse", False))
        return MethodValue(math.nan, True, condition, pinv)
    return MethodValue(
        result.ground_energy,
        singular_flag=False,
        condition_number=result.condition_number,
        used_pseudo_inverse=result.used_pseudo_inverse,
    )
