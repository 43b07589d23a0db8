"""Command-line front end: model construction, method sweeps, variational
scans, noise studies, and plot-script emission.

Every flag can also be given in a key = value config file (--config);
command-line flags override file values.  CSV floats are written with 17
significant digits so fixed-seed runs are byte-stable.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .cmx import cmx_cioslowski, cmx_knowles, singularity_report
from .errors import CmxlabError, UsageError
from .methods import MethodSpec, evaluate_method, parse_method_list
from .models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    load_h2_pes,
    siam_fci_energy,
    siam_hamiltonian,
)
from .moments import (
    MomentTable,
    connected_moments,
    krylov_rank,
    raw_moments_pauli,
)
from .noise import NoiseModel, noisy_moments
from .pauli import PauliString, PauliSum, parse_pauli_sum
from .pds import solve_pds
from .statevector import (
    StateVector,
    apply_generator_rotation,
    basis_state,
    exact_diagonalize,
    fidelity,
    pauli_expectation,
)
from .variational import ScanResult, default_theta_grid, deviation_report, energy_vs_theta

SWEEP_HEADER = (
    "sweep_value,method,order,energy,reference,deviation,"
    "singular_flag,condition_number,used_pseudo_inverse"
)
VARIATIONAL_HEADER = "theta,energy,i1,i2,i3,singular_flag"
MOMENTS_HEADER = "order,K,I"
NOISE_HEADER = "label,true_expectation,raw_estimate,mitigated_estimate,standard_error,shots"

_DEFAULT_SIAM_SWEEP = "0.1,0.5,1,2,3,6,10"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_flag(flag: bool) -> str:
    return "1" if flag else "0"


# ---------------------------------------------------------------------------
# run configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated description of one run (model, trial, methods, sweep,
    noise, output)."""

    model: str
    siam_U: float = 8.0
    siam_V: float = 1.0
    siam_mu: float | None = None
    siam_eps0: float | None = None
    siam_eps1: float | None = None
    h2_coefficients: H2Coefficients | None = None
    h2_file: str | None = None
    hamiltonian_file: str | None = None
    trial: str | None = None
    generator: str | None = None
    theta: float = 0.0
    methods: tuple[MethodSpec, ...] = ()
    sweep_values: tuple[float, ...] = ()
    noise: NoiseModel | None = None
    mitigated: bool = True
    depth_proxy: tuple[int, int] = (0, 1)
    output: str | None = None
    plot_output: str | None = None
    max_order: int = 7

    def __post_init__(self):
        if self.model not in ("siam", "h2", "file"):
            raise UsageError(f"unknown model {self.model!r}")
        for attr in ("h2_file", "hamiltonian_file"):
            path = getattr(self, attr)
            if path is not None and not Path(path).exists():
                raise UsageError(f"{attr.replace('_', '-')} {path!r} does not exist")
        if self.model == "h2" and self.h2_coefficients is None and self.h2_file is None:
            raise UsageError("h2 model needs --g or --h2-file")
        if self.model == "file" and self.hamiltonian_file is None:
            raise UsageError("file model needs --hamiltonian-file")


def siam_params(cfg: RunConfig, v: float) -> SiamParams:
    if cfg.siam_mu is None and cfg.siam_eps0 is None and cfg.siam_eps1 is None:
        return SiamParams.half_filling(cfg.siam_U, v)
    mu = cfg.siam_mu if cfg.siam_mu is not None else cfg.siam_U / 2.0
    return SiamParams(
        U=cfg.siam_U,
        mu=mu,
        eps0=cfg.siam_eps0 if cfg.siam_eps0 is not None else 0.0,
        eps1=cfg.siam_eps1 if cfg.siam_eps1 is not None else mu,
        V=v,
    )


@dataclass(frozen=True)
class SweepPoint:
    sweep_value: float
    hamiltonian: PauliSum
    reference: float


def sweep_points(cfg: RunConfig) -> list[SweepPoint]:
    """One (value, Hamiltonian, reference energy) triple per sweep point.

    The reference is the analytic ground energy for the half-filling
    impurity model and the dense ground eigenvalue otherwise.
    """
    points: list[SweepPoint] = []
    if cfg.model == "siam":
        values = cfg.sweep_values or (cfg.siam_V,)
        for v in values:
            params = siam_params(cfg, v)
            h = siam_hamiltonian(params)
            if params.is_half_filling:
                ref = siam_fci_energy(params.U, params.V)
            else:
                ref = exact_diagonalize(h).ground_energy
            points.append(SweepPoint(v, h, ref))
    elif cfg.model == "h2":
        if cfg.h2_file is not None:
            rows = load_h2_pes(cfg.h2_file)
            if not rows:
                raise UsageError(f"no coefficient rows in {cfg.h2_file!r}")
            for r, coeffs in rows:
                h = h2_bk_hamiltonian(coeffs)
                points.append(SweepPoint(r, h, exact_diagonalize(h).ground_energy))
        else:
            h = h2_bk_hamiltonian(cfg.h2_coefficients)
            label = cfg.h2_coefficients.r if cfg.h2_coefficients.r is not None else 0.0
            points.append(SweepPoint(label, h, exact_diagonalize(h).ground_energy))
    else:
        h = parse_pauli_sum(Path(cfg.hamiltonian_file).read_text())
        points.append(SweepPoint(0.0, h, exact_diagonalize(h).ground_energy))
    return points


def trial_bits(cfg: RunConfig, n_qubits: int) -> str:
    bits = cfg.trial
    if bits is None:
        bits = {"siam": "0110", "h2": "01"}.get(cfg.model)
        if bits is None:
            raise UsageError("the file model needs an explicit --trial bitstring")
    if len(bits) != n_qubits:
        raise UsageError(
            f"trial {bits!r} has {len(bits)} bits, model has {n_qubits} qubits"
        )
    return bits


def trial_state(cfg: RunConfig, n_qubits: int) -> StateVector:
    state = basis_state(trial_bits(cfg, n_qubits))
    if cfg.generator is not None and cfg.theta != 0.0:
        generator = PauliString.from_label(cfg.generator)
        state = apply_generator_rotation(cfg.theta, generator, state)
    return state


def moment_table(cfg: RunConfig, h: PauliSum, state: StateVector, max_order: int) -> MomentTable:
    if cfg.noise is not None:
        table, _ = noisy_moments(
            h, state, max_order, cfg.noise,
            depth_proxy=cfg.depth_proxy, mitigated=cfg.mitigated,
        )
    else:
        table, _ = raw_moments_pauli(h, state, max_order)
    return connected_moments(table)


# ---------------------------------------------------------------------------
# sweep


def sweep_rows(cfg: RunConfig) -> list[str]:
    """CSV rows for every (sweep point, method) pair, ordered by sweep value.

    Singular method evaluations become flagged rows, never crashes, so
    divergent expansion branches stay plottable.
    """
    if not cfg.methods:
        raise UsageError("at least one method is required")
    points = sweep_points(cfg)
    max_order = max(spec.required_max_order for spec in cfg.methods)

    rows = []
    for point in points:
        state = trial_state(cfg, point.hamiltonian.n_qubits)
        table = moment_table(cfg, point.hamiltonian, state, max_order)
        for spec in cfg.methods:
            value = evaluate_method(spec, table)
            deviation = value.energy - point.reference
            rows.append(
                ",".join(
                    [
                        _fmt(point.sweep_value),
                        spec.name,
                        str(spec.order),
                        _fmt(value.energy),
                        _fmt(point.reference),
                        _fmt(deviation),
                        _fmt_flag(value.singular_flag),
                        _fmt(value.condition_number),
                        _fmt_flag(value.used_pseudo_inverse),
                    ]
                )
            )
    return rows


def run_sweep(cfg: RunConfig) -> str:
    """Execute the sweep and return the CSV text (also written to
    cfg.output when set)."""
    text = SWEEP_HEADER + "\n" + "\n".join(sweep_rows(cfg)) + "\n"
    if cfg.output:
        Path(cfg.output).write_text(text)
        if cfg.plot_output:
            emit_plot_script(cfg.output, cfg.plot_output)
    return text


# ---------------------------------------------------------------------------
# variational


def run_variational(cfg: RunConfig, theta_grid=None) -> tuple[str, ScanResult, float]:
    if len(cfg.methods) != 1:
        raise UsageError("variational runs take exactly one method")
    if cfg.generator is None:
        raise UsageError("variational runs need --generator")
    points = sweep_points(cfg)
    if len(points) != 1:
        raise UsageError("variational runs take a single model point, not a sweep")
    point = points[0]
    # the scan rotates the base itself; any --theta preset is ignored here
    base = basis_state(trial_bits(cfg, point.hamiltonian.n_qubits))
    generator = PauliString.from_label(cfg.generator)
    scan = energy_vs_theta(
        point.hamiltonian, base, generator, cfg.methods[0], theta_grid=theta_grid
    )
    lines = [VARIATIONAL_HEADER]
    for i, theta in enumerate(scan.theta_grid):
        lines.append(
            ",".join(
                [
                    _fmt(theta),
                    _fmt(scan.energies[i]),
                    _fmt(scan.i1[i]),
                    _fmt(scan.i2[i]),
                    _fmt(scan.i3[i]),
                    _fmt_flag(scan.singular_flags[i]),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    if cfg.output:
        Path(cfg.output).write_text(text)
        if cfg.plot_output:
            emit_plot_script(cfg.output, cfg.plot_output)
    return text, scan, point.reference


# ---------------------------------------------------------------------------
# plot script emission


def emit_plot_script(csv_path: str | Path, out_path: str | Path | None = None) -> Path:
    """Write a self-contained gnuplot script next to the CSV.

    Sweep CSVs get one curve per method plus the reference line; variational
    CSVs get the theta landscape.
    """
    csv_path = Path(csv_path)
    if not csv_path.exists():
        raise UsageError(f"CSV {csv_path} does not exist")
    lines = [ln for ln in csv_path.read_text().splitlines() if ln.strip()]
    if not lines:
        raise UsageError(f"CSV {csv_path} is empty")
    header = lines[0].split(",")
    data = lines[1:]
    if not data:
        raise UsageError(f"CSV {csv_path} has no data rows")
    out_path = Path(out_path) if out_path else csv_path.with_suffix(".gp")

    script = [
        "# gnuplot script generated by cmxlab",
        'set datafile separator ","',
        "set key outside",
        "set grid",
    ]
    if header[:6] == VARIATIONAL_HEADER.split(","):
        script += [
            'set xlabel "theta (rad)"',
            'set ylabel "energy"',
            f'plot "{csv_path.name}" using 1:2 with linespoints title "energy(theta)"',
        ]
    elif header == SWEEP_HEADER.split(","):
        methods = []
        for row in data:
            fields = row.split(",")
            key = (fields[1], fields[2])
            if key not in methods:
                methods.append(key)
        plot_terms = [
            f'"{csv_path.name}" using 1:(strcol(2) eq "{name}" && column(3) == {order} ? '
            f'column(4) : NaN) with linespoints title "{name}:{order}"'
            for name, order in methods
        ]
        plot_terms.append(
            f'"{csv_path.name}" using 1:5 with lines lc rgb "black" title "reference"'
        )
        script += [
            'set xlabel "sweep value"',
            'set ylabel "energy"',
            "plot \\",
            ", \\\n".join("  " + term for term in plot_terms),
        ]
    else:
        raise UsageError(
            f"CSV header {lines[0]!r} is neither a sweep nor a variational schema"
        )
    out_path.write_text("\n".join(script) + "\n")
    return out_path


# ---------------------------------------------------------------------------
# argument parsing


def _add_model_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=("siam", "h2", "file"), default="siam")
    p.add_argument("--U", type=float, default=8.0, help="impurity repulsion")
    p.add_argument("--V", type=float, default=1.0, help="hybridization strength")
    p.add_argument("--mu", type=float, default=None, help="chemical potential (default U/2)")
    p.add_argument("--eps0", type=float, default=None, help="impurity site energy (default 0)")
    p.add_argument("--eps1", type=float, default=None, help="bath site energy (default mu)")
    p.add_argument("--g", type=str, default=None, help="six comma-separated h2 coefficients")
    p.add_argument("--h2-file", type=str, default=None, help="PES CSV with columns R,g0..g5")
    p.add_argument("--hamiltonian-file", type=str, default=None, help="Hamiltonian text file")
    p.add_argument("--trial", type=str, default=None, help="trial bitstring (qubit 0 first)")
    p.add_argument("--generator", type=str, default=None, help="rotation generator label")
    p.add_argument("--theta", type=float, default=0.0, help="rotation angle (rad)")


def _add_noise_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--noise", action="store_true", help="enable shot-noise emulation")
    p.add_argument("--p00", type=float, default=1.0)
    p.add_argument("--p11", type=float, default=1.0)
    p.add_argument("--p1", type=float, default=0.0)
    p.add_argument("--p2", type=float, default=0.0)
    p.add_argument("--shots", type=int, default=8192)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-mitigation", action="store_true")


def _add_output_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", type=str, default=None, help="CSV output path")
    p.add_argument("--emit-plot", type=str, default=None, help="also write a gnuplot script")
    p.add_argument("--config", type=str, default=None, help="key = value config file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmxlab",
        description="Connected-moments (CMX/PDS) energy estimation for qubit Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="raw and connected moment table")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--max-order", type=int, default=7)

    p = sub.add_parser("cmx", help="CMX energies at one model point")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--variant", choices=("cioslowski", "knowles", "both"), default="both")

    p = sub.add_parser("pds", help="PDS roots at one model point")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--order", type=int, default=2)

    p = sub.add_parser("sweep", help="methods across a parameter sweep, CSV out")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--methods", type=str, required=True,
                   help="comma list, e.g. cmx-cioslowski:2,cmx-knowles:3,pds:3")
    p.add_argument("--sweep-values", type=str, default=_DEFAULT_SIAM_SWEEP,
                   help="comma list of hybridization values (siam model)")

    p = sub.add_parser("variational", help="estimator vs rotation angle")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--method", type=str, default="pds:2")
    p.add_argument("--grid-points", type=int, default=81)

    p = sub.add_parser("noise", help="noisy shot estimates and method energies")
    _add_model_options(p)
    _add_noise_options(p)
    _add_output_options(p)
    p.add_argument("--methods", type=str, default="cmx-cioslowski:2,pds:2")
    p.add_argument("--max-order", type=int, default=3)

    p = sub.add_parser("diag", help="exact spectrum, fidelity, Krylov rank")
    _add_model_options(p)
    _add_output_options(p)

    return parser


def _load_config_tokens(path: str) -> list[str]:
    """Turn key = value lines into CLI tokens (booleans add bare flags)."""
    tokens: list[str] = []
    text = Path(path).read_text()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip().replace("_", "-")
        value = value.strip()
        flag = f"--{key}"
        if value.lower() in ("true", "yes", "on"):
            tokens.append(flag)
        elif value.lower() in ("false", "no", "off"):
            continue
        else:
            tokens.extend([flag, value])
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens right after the subcommand so explicit
    flags, which come later, win."""
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return argv
    if not Path(config_path).exists():
        raise UsageError(f"config file {config_path!r} does not exist")
    tokens = _load_config_tokens(config_path)
    return argv[:1] + tokens + argv[1:]


# ---------------------------------------------------------------------------
# subcommand implementations


def _config_from_args(args: argparse.Namespace, methods=()) -> RunConfig:
    coeffs = None
    if getattr(args, "g", None):
        pieces = [p for p in args.g.split(",") if p.strip()]
        if len(pieces) != 6:
            raise UsageError(f"--g needs six comma-separated values, got {len(pieces)}")
        coeffs = H2Coefficients(*(float(p) for p in pieces))
    noise = None
    if getattr(args, "noise", False):
        trial_bits = args.trial or {"siam": "0110", "h2": "01"}.get(args.model, "")
        noise = NoiseModel(
            p00=args.p00, p11=args.p11, p1=args.p1, p2=args.p2,
            shots=args.shots, seed=args.seed,
        )
        depth_proxy = (trial_bits.count("1"), 1)
    else:
        depth_proxy = (0, 1)
    sweep = ()
    if getattr(args, "sweep_values", None):
        sweep = tuple(float(v) for v in args.sweep_values.split(",") if v.strip())
        if not sweep:
            raise UsageError("--sweep-values must contain at least one value")
    return RunConfig(
        model=args.model,
        siam_U=args.U,
        siam_V=args.V,
        siam_mu=args.mu,
        siam_eps0=args.eps0,
        siam_eps1=args.eps1,
        h2_coefficients=coeffs,
        h2_file=args.h2_file,
        hamiltonian_file=args.hamiltonian_file,
        trial=args.trial,
        generator=args.generator,
        theta=args.theta,
        methods=tuple(methods),
        sweep_values=sweep,
        noise=noise,
        mitigated=not getattr(args, "no_mitigation", False),
        depth_proxy=depth_proxy,
        output=args.output,
        plot_output=getattr(args, "emit_plot", None),
        max_order=getattr(args, "max_order", 7),
    )


def _single_point(cfg: RunConfig) -> SweepPoint:
    points = sweep_points(cfg)
    if len(points) != 1:
        raise UsageError("this subcommand works on a single model point")
    return points[0]


def _write_or_print(text: str, output: str | None, out) -> None:
    if output:
        Path(output).write_text(text)
    else:
        out.write(text)


def _cmd_moments(args: argparse.Namespace, out) -> int:
    cfg = _config_from_args(args)
    point = _single_point(cfg)
    state = trial_state(cfg, point.hamiltonian.n_qubits)
    table = moment_table(cfg, point.hamiltonian, state, cfg.max_order)
    lines = [MOMENTS_HEADER]
    for order in range(cfg.max_order + 1):
        i_val = _fmt(table.connected[order - 1]) if order >= 1 else ""
        lines.append(f"{order},{_fmt(table.raw[order])},{i_val}")
    _write_or_print("\n".join(lines) + "\n", cfg.output, out)
    return 0


def _cmd_cmx(args: argparse.Namespace, out) -> int:
    cfg = _config_from_args(args)
    point = _single_point(cfg)
    state = trial_state(cfg, point.hamiltonian.n_qubits)
    table = moment_table(cfg, point.hamiltonian, state, 2 * args.order - 1)
    variants = ("cioslowski", "knowles") if args.variant == "both" else (args.variant,)
    out.write(f"model point: sweep_value={_fmt(point.sweep_value)} "
              f"reference={_fmt(point.reference)}\n")
    for variant in variants:
        fn = cmx_cioslowski if variant == "cioslowski" else cmx_knowles
        result = fn(table, args.order)
        orders = " ".join(_fmt(e) for e in result.energies)
        out.write(f"cmx-{variant}({args.order}): energy={_fmt(result.energy)} "
                  f"singular={_fmt_flag(result.singular_flag)} E(1..K)=[{orders}]\n")
        for label, value in result.denominators:
            out.write(f"  denominator {label} = {_fmt(value)}\n")
    findings = singularity_report(table)
    for finding in findings:
        out.write(f"warning: {finding.label} = {_fmt(finding.value)} "
                  f"would poison {finding.affected}\n")
    if findings:
        out.write("hint: prefer an expansion that avoids the flagged denominators\n")
    return 0


def _cmd_pds(args: argparse.Namespace, out) -> int:
    cfg = _config_from_args(args)
    point = _single_point(cfg)
    state = trial_state(cfg, point.hamiltonian.n_qubits)
    table = moment_table(cfg, point.hamiltonian, state, 2 * args.order - 1)
    result = solve_pds(table, args.order)
    out.write(f"model point: sweep_value={_fmt(point.sweep_value)} "
              f"reference={_fmt(point.reference)}\n")
    out.write(f"pds({args.order}): ground={_fmt(result.ground_energy)} "
              f"condition={_fmt(result.condition_number)} "
              f"pinv={_fmt_flag(result.used_pseudo_inverse)}\n")
    out.write("real roots: " + " ".join(_fmt(r) for r in result.real_roots_sorted) + "\n")
    if result.complex_roots:
        out.write("complex roots dropped from bounds: "
                  + " ".join(f"{r.real:.6g}{r.imag:+.6g}j" for r in result.complex_roots)
                  + "\n")
    return 0


def _cmd_sweep(args: argparse.Namespace, out) -> int:
    methods = parse_method_list(args.methods)
    cfg = _config_from_args(args, methods=methods)
    text = run_sweep(cfg)
    if not cfg.output:
        out.write(text)
    else:
        out.write(f"wrote {cfg.output}\n")
    return 0


def _cmd_variational(args: argparse.Namespace, out) -> int:
    methods = parse_method_list(args.method)
    cfg = _config_from_args(args, methods=methods)
    grid = default_theta_grid(args.grid_points)
    text, scan, reference = run_variational(cfg, theta_grid=grid)
    if not cfg.output:
        out.write(text)
    report = deviation_report(scan, reference)
    out.write(f"theta_opt={_fmt(scan.theta_opt)} energy_opt={_fmt(scan.energy_opt)} "
              f"reference={_fmt(reference)}\n")
    factor = "inf" if report.infinite_improvement else _fmt(report.improvement_factor)
    out.write(f"deviation at theta=0: {_fmt(report.dev_at_zero)}; at optimum: "
              f"{_fmt(report.dev_at_opt)}; improvement factor: {factor}\n")
    return 0


def _cmd_noise(args: argparse.Namespace, out) -> int:
    if not args.noise:
        args.noise = True  # the subcommand implies emulation
    methods = parse_method_list(args.methods)
    cfg = _config_from_args(args, methods=methods)
    point = _single_point(cfg)
    state = trial_state(cfg, point.hamiltonian.n_qubits)
    table, estimates = noisy_moments(
        point.hamiltonian, state, cfg.max_order, cfg.noise,
        depth_proxy=cfg.depth_proxy, mitigated=cfg.mitigated,
    )
    table = connected_moments(table)
    lines = [NOISE_HEADER]
    for p in sorted(estimates, key=lambda q: q.label):
        est = estimates[p]
        lines.append(",".join([
            p.label,
            _fmt(pauli_expectation(p, state)),
            _fmt(est.raw_estimate),
            _fmt(est.mitigated_estimate),
            _fmt(est.standard_error),
            str(est.shots_used),
        ]))
    _write_or_print("\n".join(lines) + "\n", cfg.output, out)
    for spec in cfg.methods:
        value = evaluate_method(spec, table)
        out.write(f"{spec}: energy={_fmt(value.energy)} "
                  f"singular={_fmt_flag(value.singular_flag)}\n")
    return 0


def _cmd_diag(args: argparse.Namespace, out) -> int:
    cfg = _config_from_args(args)
    point = _single_point(cfg)
    spectrum = exact_diagonalize(point.hamiltonian)
    state = trial_state(cfg, point.hamiltonian.n_qubits)
    lines = ["index,eigenvalue"]
    for i, value in enumerate(spectrum.eigenvalues):
        lines.append(f"{i},{_fmt(value)}")
    _write_or_print("\n".join(lines) + "\n", cfg.output, out)
    overlap = fidelity(state, spectrum.ground_vector)
    rank = krylov_rank(point.hamiltonian, state, max_dim=8)
    out.write(f"ground_energy={_fmt(spectrum.ground_energy)}\n")
    out.write(f"trial_fidelity_with_ground={_fmt(overlap)}\n")
    out.write(f"krylov_rank={rank}\n")
    return 0


_COMMANDS = {
    "moments": _cmd_moments,
    "cmx": _cmd_cmx,
    "pds": _cmd_pds,
    "sweep": _cmd_sweep,
    "variational": _cmd_variational,
    "noise": _cmd_noise,
    "diag": _cmd_diag,
}


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    out = out if out is not None else sys.stdout
    try:
        argv = _inject_config(argv)
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args, out)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CmxlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
