"""Command-line front end: seven subcommands over one pipeline.

Every subcommand runs the same pipeline, model point -> trial state ->
moments K_n -> CMX/PDS energy, noisy or exact, through `_prepare`, and
differs only in what it reports.  `COMMANDS` gives each subcommand its help
text, the option groups it reads, its own options and its handler; a
subcommand registers only the options it reads, so argparse rejects any
other with exit status 2.  A call builds only its own subcommand's options;
the other subcommands are there by name, for help and usage errors.  A
handler is a generator: it first yields its CSV lines (None when it has no
table), which `main` writes to --output or stdout and, with --emit-plot,
turns into a gnuplot script; then it yields summary lines, which always go
to stdout.

Every flag can also be given in a key = value config file (--config);
command-line flags override file values.  CSV floats are written with 17
significant digits so fixed-seed runs are byte-stable.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .cmx import cmx_cioslowski, cmx_knowles, denominator_findings
from .errors import CmxlabError, UsageError
from .methods import evaluate_method, evaluate_rows, parse_method_list
from .models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    load_h2_pes,
    siam_fci_energy,
    siam_hamiltonian,
)
from .moments import MomentRows, MomentTable, krylov_rank, raw_moments_pauli
from .noise import MAX_SHOTS, NoiseModel, SampledStrings, noisy_moments
from .pauli import PauliString, PauliSum, parse_pauli_sum
from .pds import solve_pds
from .statevector import (
    StateVector,
    apply_generator_rotation,
    basis_state,
    exact_diagonalize,
    fidelity,
    require_dense,
)
from .variational import default_theta_grid, deviation_report, energy_vs_theta

SWEEP_HEADER = (
    "sweep_value,method,order,energy,reference,deviation,"
    "singular_flag,condition_number,used_pseudo_inverse"
)
VARIATIONAL_HEADER = "theta,energy,i1,i2,i3,singular_flag"
MOMENTS_HEADER = "order,K,I"
NOISE_HEADER = "label,true_expectation,raw_estimate,mitigated_estimate,standard_error,shots"

_DEFAULT_SIAM_SWEEP = "0.1,0.5,1,2,3,6,10"
_DEFAULT_TRIALS = {"siam": "0110", "h2": "01"}


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_flag(flag: bool) -> str:
    return "1" if flag else "0"


def _row(*fields) -> str:
    """One CSV row: strings as they are, numbers through `_fmt`."""
    return ",".join(f if isinstance(f, str) else _fmt(f) for f in fields)


# ---------------------------------------------------------------------------
# the pipeline


@dataclass(frozen=True)
class Prepared:
    """One model point: its sweep value and Hamiltonian, the trial state,
    its connected moment table and, on the noisy route, the record of every
    sampled string.  Its reference energy is computed on first use, so only
    the subcommands that print it pay for a dense diagonalisation."""

    sweep_value: float
    hamiltonian: PauliSum
    analytic_reference: float | None
    state: StateVector
    table: MomentTable | None
    estimates: SampledStrings | None

    @cached_property
    def reference(self) -> float:
        """The analytic ground energy when there is one, else the dense
        ground eigenvalue."""
        if self.analytic_reference is not None:
            return self.analytic_reference
        return exact_diagonalize(self.hamiltonian).ground_energy


def _numbers(text: str, option: str) -> tuple[float, ...]:
    """The finite numbers of a comma list option; blank items are skipped."""
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip())
        if all(map(math.isfinite, values)):
            return values
    except ValueError:
        pass
    raise UsageError(f"{option} takes comma-separated finite numbers, got {text!r}")


def _prepare(args: argparse.Namespace, max_order: int | None,
             sweep: bool = False, reference: bool = False) -> list[Prepared]:
    """Model point -> trial state -> K_0..K_max_order with connected moments,
    for every model point; max_order None stops at the state.

    Every model, theta and noise option is read and checked here, so a
    malformed value is a usage error.  The sweep value is V for the impurity
    model, R for an --h2-file row and 0 otherwise; the reference is the
    analytic ground energy for the half-filling impurity model and otherwise
    the dense ground eigenvalue, computed when a handler first reads it.
    The moments are shot estimates under --noise and exact Pauli-route
    values otherwise.  Unless `sweep`, the run
    must have exactly one model point.  With `reference`, a model past the
    dense limit with no analytic reference fails before any moment is built.
    """
    coeffs = _numbers(args.g, "--g") if args.g else None
    if coeffs is not None and len(coeffs) != 6:
        raise UsageError(f"--g needs six comma-separated values, got {len(coeffs)}")
    values = ()
    if getattr(args, "sweep_values", None):
        values = _numbers(args.sweep_values, "--sweep-values")
        if not values:
            raise UsageError("--sweep-values must contain at least one value")
    for option in ("h2_file", "hamiltonian_file"):
        path = getattr(args, option)
        if path is not None and not Path(path).exists():
            raise UsageError(f"{option.replace('_', '-')} {path!r} does not exist")
    theta = getattr(args, "theta", 0.0)
    if theta != 0.0 and args.generator is None:
        raise UsageError("--theta needs --generator")

    half_filling = False
    if args.model == "siam":
        mu = args.U / 2.0 if args.mu is None else args.mu
        eps0 = 0.0 if args.eps0 is None else args.eps0
        eps1 = mu if args.eps1 is None else args.eps1
        params = [SiamParams(args.U, mu, eps0, eps1, v) for v in values or (args.V,)]
        half_filling = params[0].is_half_filling
        points = [(p.V, siam_hamiltonian(p)) for p in params]
    elif args.model == "h2" and args.h2_file is not None:
        rows = load_h2_pes(args.h2_file)
        if not rows:
            raise UsageError(f"no coefficient rows in {args.h2_file!r}")
        points = [(r, h2_bk_hamiltonian(c)) for r, c in rows]
    elif args.model == "h2":
        if coeffs is None:
            raise UsageError("h2 model needs --g or --h2-file")
        points = [(0.0, h2_bk_hamiltonian(H2Coefficients(*coeffs)))]
    else:
        if args.hamiltonian_file is None:
            raise UsageError("file model needs --hamiltonian-file")
        points = [(0.0, parse_pauli_sum(Path(args.hamiltonian_file).read_text()))]
    if not sweep and len(points) != 1:
        raise UsageError("this subcommand works on a single model point")

    n_qubits = points[0][1].n_qubits
    bits = args.trial or _DEFAULT_TRIALS.get(args.model)
    if bits is None:
        raise UsageError("the file model needs an explicit --trial bitstring")
    if len(bits) != n_qubits:
        raise UsageError(f"trial {bits!r} has {len(bits)} bits, model has {n_qubits} qubits")
    try:
        state = basis_state(bits)
    except ValueError as err:
        raise UsageError(f"--trial: {err}") from None
    if args.generator is not None:
        try:
            generator = PauliString.from_label(args.generator)
        except ValueError as err:
            raise UsageError(f"--generator: {err}") from None
        if generator.n_qubits != n_qubits:
            raise UsageError(f"generator {args.generator!r} has {generator.n_qubits} "
                             f"qubits, model has {n_qubits} qubits")
        if theta != 0.0:
            state = apply_generator_rotation(theta, generator, state)

    noise = None
    if getattr(args, "noise", False):
        noise = NoiseModel(p00=args.p00, p11=args.p11, p1=args.p1, p2=args.p2,
                           shots=args.shots, seed=args.seed)
    if reference and not half_filling:
        require_dense(n_qubits)
    prepared = []
    for value, h in points:
        analytic = siam_fci_energy(args.U, value) if half_filling else None
        table, estimates = None, None
        if max_order is not None and noise is not None:
            # gate equivalents: the trial's preparation flips, one controlled op
            table, estimates = noisy_moments(
                h, state, max_order, noise, depth_proxy=(bits.count("1"), 1),
                mitigated=not args.no_mitigation,
            )
        elif max_order is not None:
            table, _ = raw_moments_pauli(h, state, max_order)
        prepared.append(Prepared(value, h, analytic, state, table, estimates))
    return prepared


# a handler's yields: its CSV lines (or None), then its summary lines
Report = Iterator[list[str] | str | None]


def _moments(args: argparse.Namespace) -> Report:
    [prep] = _prepare(args, args.max_order)
    lines = [MOMENTS_HEADER]
    for order in range(args.max_order + 1):
        i_val = prep.table.connected[order - 1] if order >= 1 else ""
        lines.append(_row(order, prep.table.raw[order], i_val))
    yield lines


def _cmx(args: argparse.Namespace) -> Report:
    [prep] = _prepare(args, 2 * args.order - 1, reference=True)
    variants = ("cioslowski", "knowles") if args.variant == "both" else (args.variant,)
    yield None
    yield (f"model point: sweep_value={_fmt(prep.sweep_value)} "
           f"reference={_fmt(prep.reference)}")
    cioslowski = None
    for variant in variants:
        if variant == "cioslowski":
            result = cioslowski = cmx_cioslowski(prep.table.connected, args.order)
        else:
            result = cmx_knowles(prep.table.connected, args.order)
        orders = " ".join(_fmt(e) for e in result.energies)
        yield (f"cmx-{variant}({args.order}): energy={_fmt(result.energy)} "
               f"singular={_fmt_flag(result.singular_flag)} E(1..K)=[{orders}]")
        for label, value in result.denominators:
            yield f"  denominator {label} = {_fmt(value)}"
    # the report reads the Cioslowski denominators at the printed order
    if cioslowski is None:
        cioslowski = cmx_cioslowski(prep.table.connected, args.order)
    findings = denominator_findings(cioslowski.denominators)
    for finding in findings:
        yield (f"warning: {finding.label} = {_fmt(finding.value)} "
               f"would poison {finding.affected}")
    if findings:
        yield "hint: prefer an expansion that avoids the flagged denominators"


def _pds(args: argparse.Namespace) -> Report:
    [prep] = _prepare(args, 2 * args.order - 1, reference=True)
    result = solve_pds(prep.table.raw, args.order)
    yield None
    yield (f"model point: sweep_value={_fmt(prep.sweep_value)} "
           f"reference={_fmt(prep.reference)}")
    yield (f"pds({args.order}): ground={_fmt(result.ground_energy)} "
           f"condition={_fmt(result.condition_number)} "
           f"pinv={_fmt_flag(result.used_pseudo_inverse)}")
    yield "real roots: " + " ".join(_fmt(r) for r in result.real_roots_sorted)
    if result.complex_roots:
        yield ("complex roots dropped from bounds: "
               + " ".join(f"{r.real:.6g}{r.imag:+.6g}j" for r in result.complex_roots))


def _sweep(args: argparse.Namespace) -> Report:
    """CSV rows for every (sweep point, method) pair, ordered by sweep value.

    Singular method evaluations become flagged rows, never crashes, so
    divergent expansion branches stay plottable.
    """
    methods = parse_method_list(args.methods)
    max_order = max(spec.required_max_order for spec in methods)
    points = list(_prepare(args, max_order, sweep=True, reference=True))
    rows = MomentRows([prep.table.raw for prep in points])
    # each method once over all points: (energy, singular, condition, pinv) lists
    values = [[column.tolist() for column in evaluate_rows(spec, rows)] for spec in methods]
    rows = [SWEEP_HEADER]
    for i, prep in enumerate(points):
        for spec, (energy, singular, condition, pinv) in zip(methods, values):
            rows.append(_row(
                prep.sweep_value, spec.name, spec.order,
                energy[i], prep.reference, energy[i] - prep.reference,
                _fmt_flag(singular[i]), condition[i], _fmt_flag(pinv[i]),
            ))
    yield rows
    if args.output:
        yield f"wrote {args.output}"


def _variational(args: argparse.Namespace) -> Report:
    grid = default_theta_grid(args.grid_points)
    methods = parse_method_list(args.method)
    if len(methods) != 1:
        raise UsageError("variational runs take exactly one method")
    if args.generator is None:
        raise UsageError("variational runs need --generator")
    [prep] = _prepare(args, None)
    reference = prep.reference  # a model past the dense limit fails before the scan
    generator = PauliString.from_label(args.generator)
    scan = energy_vs_theta(prep.hamiltonian, prep.state, generator, methods[0],
                           theta_grid=grid)
    lines = [VARIATIONAL_HEADER]
    for i, theta in enumerate(scan.theta_grid):
        lines.append(_row(theta, scan.energies[i], scan.i1[i], scan.i2[i], scan.i3[i],
                          _fmt_flag(scan.singular_flags[i])))
    yield lines
    report = deviation_report(scan, reference)
    yield (f"theta_opt={_fmt(scan.theta_opt)} energy_opt={_fmt(scan.energy_opt)} "
           f"reference={_fmt(reference)}")
    factor = "inf" if report.infinite_improvement else _fmt(report.improvement_factor)
    yield (f"deviation at theta=0: {_fmt(report.dev_at_zero)}; at optimum: "
           f"{_fmt(report.dev_at_opt)}; improvement factor: {factor}")


def _noise(args: argparse.Namespace) -> Report:
    methods = parse_method_list(args.methods)
    needed = max(spec.required_max_order for spec in methods)
    if needed > args.max_order:
        raise UsageError(f"--methods {args.methods} needs --max-order >= {needed}, "
                         f"got {args.max_order}")
    [prep] = _prepare(args, args.max_order)
    lines = [NOISE_HEADER]
    sampled = prep.estimates
    rows = zip(sampled, sampled.true.tolist(), sampled.values())
    for p, true, est in sorted(rows, key=lambda row: row[0].label):
        lines.append(_row(p.label, true, est.raw_estimate, est.mitigated_estimate,
                          est.standard_error, est.shots_used))
    yield lines
    for spec in methods:
        value = evaluate_method(spec, prep.table)
        yield f"{spec}: energy={_fmt(value.energy)} singular={_fmt_flag(value.singular_flag)}"


def _diag(args: argparse.Namespace) -> Report:
    [prep] = _prepare(args, None)
    spectrum = exact_diagonalize(prep.hamiltonian)
    yield ["index,eigenvalue"] + [_row(i, v) for i, v in enumerate(spectrum.eigenvalues)]
    overlap = fidelity(prep.state, spectrum.ground_vector)
    rank = krylov_rank(prep.hamiltonian, prep.state, max_dim=8)
    yield f"ground_energy={_fmt(spectrum.ground_energy)}"
    yield f"trial_fidelity_with_ground={_fmt(overlap)}"
    yield f"krylov_rank={rank}"


# ---------------------------------------------------------------------------
# plot script emission


def emit_plot_script(csv_path: str | Path, out_path: str | Path | None = None) -> Path:
    """Write a self-contained gnuplot script, by default next to the CSV.

    The script names the CSV by its path relative to the script's directory.
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
    data_file = Path(os.path.relpath(csv_path, out_path.parent)).as_posix()

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
            f'plot "{data_file}" using 1:2 with linespoints title "energy(theta)"',
        ]
    elif header == SWEEP_HEADER.split(","):
        methods = []
        for row in data:
            fields = row.split(",")
            key = (fields[1], fields[2])
            if key not in methods:
                methods.append(key)
        plot_terms = [
            f'"{data_file}" using 1:(strcol(2) eq "{name}" && column(3) == {order} ? '
            f'column(4) : NaN) with linespoints title "{name}:{order}"'
            for name, order in methods
        ]
        plot_terms.append(
            f'"{data_file}" using 1:5 with lines lc rgb "black" title "reference"'
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


def _bounded(kind: type, low: float, high: float):
    """An argparse type: `kind(text)` in [low, high], else a usage error."""

    def parse(text: str):
        value = kind(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in parse errors
    return parse


_POSITIVE = _bounded(int, 1, float("inf"))
_PROBABILITY = _bounded(float, 0.0, 1.0)
_FINITE = _bounded(float, -sys.float_info.max, sys.float_info.max)

OPTION_GROUPS = {
    "model": {
        "--model": dict(choices=("siam", "h2", "file"), default="siam"),
        "--U": dict(type=_FINITE, default=8.0, help="impurity repulsion"),
        "--V": dict(type=_FINITE, default=1.0, help="hybridization strength"),
        "--mu": dict(type=_FINITE, help="chemical potential (default U/2)"),
        "--eps0": dict(type=_FINITE, help="impurity site energy (default 0)"),
        "--eps1": dict(type=_FINITE, help="bath site energy (default mu)"),
        "--g": dict(help="six comma-separated h2 coefficients"),
        "--h2-file": dict(help="PES CSV with columns R,g0..g5"),
        "--hamiltonian-file": dict(help="Hamiltonian text file"),
        "--trial": dict(help="trial bitstring (qubit 0 first)"),
        "--generator": dict(help="rotation generator label"),
    },
    "theta": {"--theta": dict(type=_FINITE, default=0.0, help="rotation angle (rad)")},
    "noise": {
        "--noise": dict(action="store_true", help="enable shot-noise emulation"),
        "--p00": dict(type=_PROBABILITY, default=1.0),
        "--p11": dict(type=_PROBABILITY, default=1.0),
        "--p1": dict(type=_PROBABILITY, default=0.0),
        "--p2": dict(type=_PROBABILITY, default=0.0),
        "--shots": dict(type=_bounded(int, 1, MAX_SHOTS), default=8192),
        "--seed": dict(type=_bounded(int, 0, float("inf")), default=0),
        "--no-mitigation": dict(action="store_true"),
    },
    "output": {"--output": dict(help="CSV output path")},
    "plot": {"--emit-plot": dict(help="also write a gnuplot script (needs --output)")},
}

# name -> (help, option groups it reads, its own options, handler); an own
# option replaces a group's option of the same flag
COMMANDS = {
    "moments": ("raw and connected moment table", ("model", "theta", "noise", "output"),
                {"--max-order": dict(type=_POSITIVE, default=7)}, _moments),
    "cmx": ("CMX energies at one model point", ("model", "theta", "noise"),
            {"--order": dict(type=_POSITIVE, default=2),
             "--variant": dict(choices=("cioslowski", "knowles", "both"), default="both")},
            _cmx),
    "pds": ("PDS roots at one model point", ("model", "theta", "noise"),
            {"--order": dict(type=_POSITIVE, default=2)}, _pds),
    "sweep": ("methods across a parameter sweep, CSV out",
              ("model", "theta", "noise", "output", "plot"),
              {"--methods": dict(required=True,
                                 help="comma list, e.g. cmx-cioslowski:2,cmx-knowles:3,pds:3"),
               "--sweep-values": dict(default=_DEFAULT_SIAM_SWEEP,
                                      help="comma list of hybridization values (siam model)")},
              _sweep),
    "variational": ("estimator vs rotation angle", ("model", "output", "plot"),
                    {"--method": dict(default="pds:2"),
                     "--grid-points": dict(type=_POSITIVE, default=81)}, _variational),
    # the subcommand implies emulation; its --noise flag stays for config files
    "noise": ("noisy shot estimates and method energies", ("model", "theta", "noise", "output"),
              {"--noise": dict(action="store_true", default=True, help="implied"),
               "--methods": dict(default="cmx-cioslowski:2,pds:2"),
               "--max-order": dict(type=_POSITIVE, default=3)}, _noise),
    "diag": ("exact spectrum, fidelity, Krylov rank", ("model", "theta", "output"), {}, _diag),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, with options registered only on
    `command`'s subparser, or on every subparser when `command` is None.

    Every subparser exists either way, so the top-level usage, help and
    errors do not depend on `command`; a subparser without its options
    must not be asked to parse.  Each `add_argument` builds a help
    formatter, which queries the terminal size, so a call that registers
    only its own options spends about a third as long here.
    """
    parser = argparse.ArgumentParser(
        prog="cmxlab",
        description="Connected-moments (CMX/PDS) energy estimation for qubit Hamiltonians.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, groups, own, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        if command in (None, name):
            options = {flag: kw for group in groups for flag, kw in OPTION_GROUPS[group].items()}
            for flag, kwargs in (options | own).items():
                p.add_argument(flag, **kwargs)
            p.add_argument("--config", help="key = value config file")
        p.set_defaults(handler=handler)
    return parser


def _load_config_tokens(path: str) -> list[str]:
    """Turn key = value lines into --key=value tokens (booleans add bare
    flags); the joined form keeps a value that starts with a minus sign,
    such as a negative --g coefficient, from reading as a flag."""
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
            tokens.append(f"{flag}={value}")
    return tokens


def _inject_config(argv: list[str]) -> list[str]:
    """Splice config-file tokens right after the subcommand so explicit
    flags, which come later, win.

    The subcommand is the first token naming one, a --config value aside.
    A --config given before it moves to after the file's tokens, where the
    subcommand's parser reads it.  With no subcommand the --config tokens
    are dropped unread, so argparse answers as for the call without them.
    """
    config_path = None
    for i, token in enumerate(argv):
        if token == "--config" and i + 1 < len(argv):
            config_path = argv[i + 1]
        elif token.startswith("--config="):
            config_path = token.split("=", 1)[1]
    if config_path is None:
        return argv
    head, moved, i = [], [], 0
    while i < len(argv) and argv[i] not in COMMANDS:
        width = 2 if argv[i] == "--config" else 1
        (moved if argv[i].startswith("--config") else head).extend(argv[i:i + width])
        i += width
    if i >= len(argv):
        return head  # argparse reports the missing subcommand
    if not Path(config_path).exists():
        raise UsageError(f"config file {config_path!r} does not exist")
    tokens = _load_config_tokens(config_path)
    return head + argv[i:i + 1] + tokens + moved + argv[i + 1:]


def main(argv: list[str] | None = None, out=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    out = out if out is not None else sys.stdout
    try:
        argv = _inject_config(argv)
        # a leading subcommand name gets every later token, so only its
        # subparser needs options
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
        output, plot = getattr(args, "output", None), getattr(args, "emit_plot", None)
        if plot and not output:
            raise UsageError("--emit-plot needs --output")
        report = args.handler(args)
        csv = next(report)
        if csv is not None:
            text = "\n".join(csv) + "\n"
            if output:
                Path(output).write_text(text)
                if plot:
                    emit_plot_script(output, plot)
            else:
                out.write(text)
        for line in report:
            out.write(line + "\n")
        return 0
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except CmxlabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
