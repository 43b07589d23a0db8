"""Estimator energy as a function of a single-generator trial rotation:
grid scan plus derivative-free refinement of the best point.

The rotated trial is exp(i*theta*G)|base> = cos(theta)|base> +
i sin(theta) G|base> for a Pauli-string generator G and any base state.  Every
raw moment is then exactly

    K_l(theta) = cos^2(theta) alpha_l + sin^2(theta) beta_l
                 + sin(theta) cos(theta) gamma_l,

with alpha the moments of |base>, beta those of G|base> and
gamma_l = -2 Im <base|H^l G|base>.  So a scan measures three states once,
with the Pauli expansion of each power computed once and shared, and every
angle after that costs only the estimator's solve.  On a basis state |k>,
the trial the CLI scans from, the states see few strings (see
`statevector.visible_strings`): |k> and G|k> only those with x-mask 0, and
the anchor rotation only those with x-mask 0 or x(G), so the anchor reads
at most two Walsh-Hadamard tables, and the top power is formed only over
those two x-masks.  The whole grid is one `MomentRows` record, solved in one
stacked call (`methods.evaluate_rows`), and the golden-section refinement
solves the probes of three steps ahead per stacked call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ContractViolationError, SingularScanError
# evaluate_method is not called here; the benchmark's tracer wraps it by name
from .methods import MethodSpec, evaluate_method, evaluate_rows, parse_method
from .moments import MomentRows, MomentTable, hamiltonian_powers, raw_moments_pauli
from .pauli import PauliString, PauliSum
from .statevector import (
    StateVector,
    apply_generator_rotation,
    apply_pauli,
    check_trial,
    visible_strings,
)

GOLDEN_RATIO = (math.sqrt(5.0) - 1.0) / 2.0
DEFAULT_GRID_POINTS = 81
# the third measured angle; sin * cos is largest there, so gamma is best
# conditioned
ANCHOR_THETA = math.pi / 4.0
REFINE_TOLERANCE = 1e-6
# golden-section steps solved per stacked call: their 1 + 2 + 4 probe angles
# over every branch; a 7-row solve costs about 1.6 one-row solves and
# replaces three, and four steps (15 rows) measured no faster
LOOKAHEAD_STEPS = 3


def default_theta_grid(points: int = DEFAULT_GRID_POINTS) -> np.ndarray:
    """Uniform grid over [-pi/2, pi/2]; spans a full period of the scan."""
    return np.linspace(-math.pi / 2.0, math.pi / 2.0, points)


@dataclass(frozen=True)
class ScanResult:
    """Per-angle energies with low-order moment diagnostics, plus the
    refined minimizer."""

    theta_grid: tuple[float, ...]
    energies: tuple[float, ...]
    i1: tuple[float, ...]
    i2: tuple[float, ...]
    i3: tuple[float, ...]
    singular_flags: tuple[bool, ...]
    theta_opt: float
    energy_opt: float
    moments_at_opt: MomentTable


@dataclass(frozen=True)
class DeviationReport:
    """Deviation of the scan against a reference energy, before and after
    rotation."""

    dev_at_zero: float
    dev_at_opt: float
    improvement_factor: float
    infinite_improvement: bool


def _golden_step(lo: float, hi: float, x1: float, x2: float, left: bool):
    """The bracket and inner points after one golden-section step: it keeps
    [lo, x2] when `left` (f1 <= f2), else [x1, hi], and its new inner point,
    x1 on the left or x2 on the right, is the step's probe."""
    if left:
        hi, x2 = x2, x1
        x1 = hi - GOLDEN_RATIO * (hi - lo)
    else:
        lo, x1 = x1, x2
        x2 = lo + GOLDEN_RATIO * (hi - lo)
    return lo, hi, x1, x2


def _probe_tree(lo: float, hi: float, x1: float, x2: float, left: bool, steps: int) -> list[float]:
    """The probe of the step that takes branch `left` from this bracket,
    then those of up to steps - 1 further steps on either branch while the
    bracket stays wider than REFINE_TOLERANCE: at most 2**steps - 1 angles."""
    lo, hi, x1, x2 = _golden_step(lo, hi, x1, x2, left)
    angles = [x1 if left else x2]
    if steps > 1 and hi - lo > REFINE_TOLERANCE:
        for branch in (True, False):
            angles += _probe_tree(lo, hi, x1, x2, branch, steps - 1)
    return angles


def _read(value):
    """A probe's objective value, or the error its evaluation raised, raised
    now."""
    if isinstance(value, Exception):
        raise value
    return value


def _golden_section(solve, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section minimum on [lo, hi] to width REFINE_TOLERANCE.

    Derivative-free on purpose: estimator curves can have kinks where the
    root ordering changes.  `solve(angles)` returns the objective at each
    angle, or the exception evaluating it raised, which is raised only when
    the search reads that angle.  A step's branch is known from (f1, f2)
    before its probe is solved, and a probe's angle depends only on the
    branches taken, so one call solves the two initial probes and each
    further call the probes of the next LOOKAHEAD_STEPS steps on every
    branch.  The walk takes the steps with the real comparisons, so its
    probes, stopping rule and result are those of solving one probe at a
    time.
    """
    x1 = hi - GOLDEN_RATIO * (hi - lo)
    x2 = lo + GOLDEN_RATIO * (hi - lo)
    # an angle has one value, whichever call solved it
    known = dict(zip((x1, x2), solve([x1, x2])))
    f1, f2 = _read(known[x1]), _read(known[x2])
    while hi - lo > REFINE_TOLERANCE:
        left = f1 <= f2
        bracket = lo, hi, x1, x2
        lo, hi, x1, x2 = _golden_step(lo, hi, x1, x2, left)
        probe = x1 if left else x2
        if probe not in known:
            angles = _probe_tree(*bracket, left, LOOKAHEAD_STEPS)
            known.update(zip(angles, solve(angles)))
        value = _read(known[probe])
        f1, f2 = (value, f1) if left else (f2, value)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def energy_vs_theta(
    h: PauliSum,
    base: StateVector,
    generator: PauliString,
    method: MethodSpec | str,
    theta_grid: Sequence[float] | None = None,
    refine: bool = True,
) -> ScanResult:
    """Scan the estimator over rotation angles and refine the best point.

    The raw moments are measured on three states only: |base>, G|base> and
    the rotation by ANCHOR_THETA.  Every grid point, refinement probe and
    `moments_at_opt` then comes from K_l(theta) = c^2 alpha_l + s^2 beta_l
    + s c gamma_l (see the module docstring), which holds for any base and
    any generator string G.  At theta = 0 it gives the base's moments bit
    for bit.  The top power keeps only the terms whose x-mask one of the
    three states can see (see `hamiltonian_powers`); every term it drops
    would add +-0 to that moment.  The grid's rows are built in one array
    expression and checked as one `MomentRows` record; its energies and
    flags come from one stacked `evaluate_rows` call and its I_1..I_3 from
    the record, each row bit for bit what one `MomentTable` and
    `evaluate_method` give at that angle.  The golden-section refinement
    solves its probes the same way, LOOKAHEAD_STEPS steps per stacked call
    (see `_golden_section`); a probe's moments that the search never reads
    may fail the record's checks without failing the scan.

    Singular grid points are recorded with their flag and excluded from the
    minimum; if every point is singular the full diagnostic sweep is raised.
    """
    spec = parse_method(method) if isinstance(method, str) else method
    grid = default_theta_grid() if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if grid.size == 0:
        raise ValueError("theta grid must be nonempty")
    max_order = max(spec.required_max_order, 3)
    # rotate first: it rejects a generator of another size before anything
    # is measured; then H and the base are checked as the first measurement
    # would check them
    anchor = apply_generator_rotation(ANCHOR_THETA, generator, base)
    check_trial(h, base)
    image = apply_pauli(generator, base)
    masks = np.arange(1 << base.n_qubits)
    seen = visible_strings(masks, base) | visible_strings(masks, image)
    seen |= visible_strings(masks, anchor)
    seen.setflags(write=False)
    powers = hamiltonian_powers(h, max_order, seen)

    def measured(state: StateVector) -> np.ndarray:
        table, _ = raw_moments_pauli(h, state, max_order, powers=powers)
        return np.array(table.raw)

    alpha = measured(base)
    beta = measured(image)
    # the cos and sin the rotation itself used
    c_a, s_a = np.cos(ANCHOR_THETA), np.sin(ANCHOR_THETA)
    gamma = (measured(anchor) - c_a * c_a * alpha - s_a * s_a * beta) / (s_a * c_a)

    def rows_at(theta: np.ndarray) -> np.ndarray:
        c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
        # an overflowing row is non-finite, which MomentRows rejects by order
        with np.errstate(over="ignore", invalid="ignore"):
            raw = c * c * alpha + s * s * beta + s * c * gamma
        raw[:, 0] = 1.0
        return raw

    def table_at(theta: float) -> MomentTable:
        return MomentTable(tuple(rows_at(np.array([theta]))[0].tolist()))

    rows = MomentRows(rows_at(grid))
    energies, singular, _, _ = evaluate_rows(spec, rows)
    flags = singular | ~np.isfinite(energies)
    i1, i2, i3 = rows.connected[:, :3].T

    if flags.all():
        raise SingularScanError(
            f"{spec} is singular at every grid point",
            diagnostics={"theta_grid": tuple(grid.tolist()), "flags": tuple(flags.tolist())},
        )
    # the first lowest usable energy
    best = int(np.where(flags, np.inf, energies).argmin())
    theta_opt, energy_opt = float(grid[best]), float(energies[best])

    if refine and grid.size > 1:
        lo = float(grid[max(best - 1, 0)])
        hi = float(grid[min(best + 1, grid.size - 1)])

        def objective(thetas: list[float]) -> list:
            raw = rows_at(np.array(thetas))
            try:
                probes = MomentRows(raw)
            except ContractViolationError as error:
                if len(thetas) == 1:
                    return [error]
                # each row alone, so that only a row the search reads fails
                return [value for theta in thetas for value in objective([theta])]
            energy, bad = evaluate_rows(spec, probes)[:2]
            return np.where(bad | ~np.isfinite(energy), np.inf, energy).tolist()

        theta_ref, energy_ref = _golden_section(objective, lo, hi)
        if energy_ref <= energy_opt:
            theta_opt, energy_opt = theta_ref, energy_ref

    return ScanResult(
        theta_grid=tuple(grid.tolist()),
        energies=tuple(energies.tolist()),
        i1=tuple(i1.tolist()),
        i2=tuple(i2.tolist()),
        i3=tuple(i3.tolist()),
        singular_flags=tuple(flags.tolist()),
        theta_opt=theta_opt,
        energy_opt=energy_opt,
        moments_at_opt=table_at(theta_opt),
    )


def deviation_report(scan: ScanResult, reference: float) -> DeviationReport:
    """Absolute deviations against a reference at theta = 0 and at the
    optimum; the improvement factor is flagged infinite when the optimum
    lands exactly on the reference."""
    if not math.isfinite(reference):
        raise ValueError("reference must be finite")
    zero_index = min(
        range(len(scan.theta_grid)), key=lambda i: abs(scan.theta_grid[i])
    )
    dev_zero = abs(scan.energies[zero_index] - reference)
    dev_opt = abs(scan.energy_opt - reference)
    if dev_opt == 0.0:
        return DeviationReport(dev_zero, dev_opt, math.inf, True)
    return DeviationReport(dev_zero, dev_opt, dev_zero / dev_opt, False)
