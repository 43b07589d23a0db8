"""Command-line surface: subcommands, config files, CSV schemas, plots."""

import argparse
import io
import math
from pathlib import Path
from unittest import mock

import pytest

from cmxlab import cli, cmx
from cmxlab.cli import emit_plot_script, main
from cmxlab.errors import UsageError
from cmxlab.methods import MethodSpec, parse_method, parse_method_list
from cmxlab.pauli import PauliSum, serialize_pauli_sum

GOLDEN = Path(__file__).parent / "golden" / "siam_noise_sweep.csv"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def exit_code(*argv):
    try:
        return main(list(argv), out=io.StringIO())
    except SystemExit as exc:  # argparse rejects an option the subcommand lacks
        return exc.code


def subparsers(parser):
    """Each subcommand's parser, by name."""
    [action] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def model_past_the_dense_limit(tmp_path):
    """File-model flags for a 16-qubit, 4-term sum on |0...0>."""
    model = tmp_path / "h16.txt"
    model.write_text("0.5 Z" + "I" * 15 + "\n0.25 XX" + "I" * 14
                     + "\n0.3 IIYY" + "I" * 12 + "\n-0.2 " + "I" * 15 + "Z\n")
    return ("--model", "file", "--hamiltonian-file", str(model), "--trial", "0" * 16)


# (subcommand, option) pairs that the subcommand does not read
UNREAD_OPTIONS = [
    ("variational", option) for option in (
        ("--noise",), ("--p00", "0.6"), ("--p11", "0.6"), ("--p1", "0.01"),
        ("--p2", "0.01"), ("--shots", "10"), ("--seed", "3"), ("--no-mitigation",),
        ("--theta", "0.2"),
    )
] + [
    (command, option)
    for command in ("cmx", "pds")
    for option in (("--output", "out.csv"), ("--emit-plot", "out.gp"))
] + [(command, ("--emit-plot", "out.gp")) for command in ("moments", "noise", "diag")]

BASE_ARGV = {
    "variational": ("--generator", "YXXX", "--grid-points", "5"),
    "noise": ("--shots", "64"),
}

# (subcommand, option) pairs whose value lies outside the option's range
OUT_OF_RANGE = [
    ("moments", ("--max-order", "0")),
    ("cmx", ("--order", "0")),
    ("pds", ("--order", "0")),
    ("variational", ("--grid-points", "0")),
    ("noise", ("--shots", "0")),
    # past np.int64's maximum, which the binomial sampler cannot take
    ("noise", ("--shots", "100000000000000000000")),
    ("noise", ("--seed", "-1")),
] + [("noise", (flag, value)) for flag in ("--p00", "--p11", "--p1", "--p2")
     for value in ("1.5", "-0.1")]


class TestMethodSpecs:
    def test_parse_round_trip(self):
        spec = parse_method("pds:3")
        assert spec == MethodSpec("pds", 3)
        assert str(spec) == "pds:3"

    def test_aliases(self):
        assert parse_method("cmx:2").name == "cmx-cioslowski"
        assert parse_method("knowles:4").name == "cmx-knowles"
        assert parse_method("energy").name == "expectation"

    def test_hw_series(self):
        spec = parse_method("hw-series:4:0.5")
        assert (spec.order, spec.tau) == (4, 0.5)
        assert spec.required_max_order == 5

    def test_required_orders(self):
        assert parse_method("pds:3").required_max_order == 5
        assert parse_method("cmx-cioslowski:4").required_max_order == 7

    def test_bad_specs(self):
        for text in ("pds", "pds:x", "nope:2", "hw-series:3", "pds:0"):
            with pytest.raises(UsageError):
                parse_method(text)

    def test_list_parsing(self):
        specs = parse_method_list("pds:2, cmx:3")
        assert [s.name for s in specs] == ["pds", "cmx-cioslowski"]
        with pytest.raises(UsageError):
            parse_method_list(" , ")


class TestSweep:
    def test_pds3_deviation_small_everywhere(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _ = run_cli(
            "sweep", "--methods", "pds:3",
            "--sweep-values", "0.1,0.5,1,2,3,6,10",
            "--output", str(out_csv),
        )
        assert code == 0
        rows = out_csv.read_text().splitlines()[1:]
        assert len(rows) == 7
        for row in rows:
            deviation = float(row.split(",")[5])
            assert abs(deviation) < 1e-8

    def test_first_order_equals_expectation(self):
        code, text = run_cli(
            "sweep", "--methods", "cmx-cioslowski:1", "--sweep-values", "0.3,2.5"
        )
        assert code == 0
        for row in text.splitlines()[1:]:
            assert float(row.split(",")[3]) == -4.0  # <0110|H|0110> at any V

    def test_hw_series_at_tau_zero(self):
        code, text = run_cli(
            "sweep", "--methods", "hw-series:3:0.0", "--sweep-values", "1"
        )
        assert code == 0
        assert float(text.splitlines()[1].split(",")[3]) == -4.0

    def test_golden_noisy_sweep_is_byte_identical(self, tmp_path):
        out_csv = tmp_path / "noise.csv"
        code, _ = run_cli(
            "sweep", "--methods", "cmx-cioslowski:2,pds:2",
            "--sweep-values", "0.5,1,2",
            "--noise", "--p00", "0.97", "--p11", "0.96",
            "--p1", "0.001", "--p2", "0.01",
            "--shots", "4096", "--seed", "7",
            "--output", str(out_csv),
        )
        assert code == 0
        assert out_csv.read_bytes() == GOLDEN.read_bytes()

    def test_noisy_sweep_deterministic(self, tmp_path):
        args = (
            "sweep", "--methods", "pds:2", "--sweep-values", "1,3",
            "--noise", "--p00", "0.98", "--p11", "0.98", "--shots", "1024",
            "--seed", "13",
        )
        assert run_cli(*args) == run_cli(*args)

    def test_singular_points_are_rows_not_crashes(self):
        # the trial |01> is an eigenstate of a diagonal two-qubit model, so
        # the second-order expansion is singular at every sweep point
        code, text = run_cli(
            "sweep", "--model", "h2", "--g", "0.1,0.4,-0.3,0.2,0,0",
            "--methods", "cmx-cioslowski:2",
        )
        assert code == 0
        row = text.splitlines()[1].split(",")
        assert row[6] == "1"  # singular_flag
        assert math.isfinite(float(row[3]))

    def test_default_sweep_values(self):
        code, text = run_cli("sweep", "--methods", "expectation")
        assert code == 0
        values = [float(row.split(",")[0]) for row in text.splitlines()[1:]]
        assert values == [0.1, 0.5, 1.0, 2.0, 3.0, 6.0, 10.0]

    def test_unknown_method_usage_error(self):
        code, _ = run_cli("sweep", "--methods", "wat:2")
        assert code == 2

    def test_missing_h2_file(self):
        code, _ = run_cli("sweep", "--model", "h2", "--h2-file", "/nope.csv",
                          "--methods", "pds:2")
        assert code == 2


class TestFileModel:
    def test_round_trip_through_text_format(self, tmp_path):
        h = PauliSum.from_label_terms([(0.5, "ZZ"), (0.25, "XX"), (0.25, "YY")])
        path = tmp_path / "ham.txt"
        path.write_text(serialize_pauli_sum(h))
        code, text = run_cli(
            "pds", "--model", "file", "--hamiltonian-file", str(path),
            "--trial", "01", "--order", "2",
        )
        assert code == 0
        # the {|01>,|10>} block has eigenvalues {-1, 0}; order 2 saturates it
        ground = float(text.splitlines()[1].split("ground=")[1].split()[0])
        assert ground == pytest.approx(-1.0, abs=1e-8)

    def test_line_order_does_not_change_the_output(self, tmp_path):
        lines = ["0.5 ZZI", "-0.25 XXI", "0.3 IYY", "0.125 ZIZ", "0.2 XIX", "-0.4 IIZ"]
        outputs = []
        for name, order in (("forward", lines), ("backward", lines[::-1])):
            path = tmp_path / f"{name}.txt"
            path.write_text("\n".join(order) + "\n")
            for noise in ((), ("--noise", "--shots", "2048", "--seed", "5")):
                outputs.append(run_cli(
                    "sweep", "--model", "file", "--hamiltonian-file", str(path),
                    "--trial", "010", "--methods", "cmx-cioslowski:3,cmx-knowles:3,pds:3",
                    *noise,
                ))
        exact, noisy = outputs[0], outputs[1]
        assert exact[0] == noisy[0] == 0 and exact != noisy
        assert outputs[2:] == [exact, noisy]

    def test_file_model_needs_trial(self, tmp_path):
        h = PauliSum.from_label_terms([(0.5, "ZZ")])
        path = tmp_path / "ham.txt"
        path.write_text(serialize_pauli_sum(h))
        code, _ = run_cli("pds", "--model", "file", "--hamiltonian-file", str(path))
        assert code == 2


class TestSinglePointCommands:
    def test_moments_schema(self):
        code, text = run_cli("moments", "--max-order", "5")
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "order,K,I"
        assert len(lines) == 7
        assert lines[1].startswith("0,1,")
        k1 = float(lines[2].split(",")[1])
        assert k1 == -4.0

    def test_cmx_report(self):
        code, text = run_cli("cmx", "--order", "2", "--V", "1")
        assert code == 0
        assert "cmx-cioslowski(2): energy=-4.5" in text
        assert "cmx-knowles(2): energy=-4.5" in text

    @pytest.mark.parametrize("variant", ["cioslowski", "knowles", "both"])
    def test_cmx_takes_the_determinants_once(self, monkeypatch, variant):
        # one Cioslowski solve (S[2,m] and S[3,m]) serves the printed
        # result and the singularity report
        calls = []
        hankel_dets = cmx._hankel_dets

        def counted(*args):
            calls.append(args)
            return hankel_dets(*args)

        monkeypatch.setattr(cmx, "_hankel_dets", counted)
        assert run_cli("cmx", "--order", "3", "--variant", variant)[0] == 0
        assert len(calls) == 2

    def test_sweep_solves_each_method_once_over_all_points(self, monkeypatch):
        # every method is one stacked call over the sweep's points, and its
        # rows equal the one-table evaluation of each point
        calls = []
        evaluate_rows = cli.evaluate_rows

        def counted(spec, rows):
            calls.append((spec, rows.raw.shape))
            return evaluate_rows(spec, rows)

        monkeypatch.setattr(cli, "evaluate_rows", counted)
        with mock.patch.object(cli, "evaluate_method", side_effect=AssertionError):
            code, stacked = run_cli("sweep", "--methods", "cmx-knowles:2,pds:3,expectation",
                                    "--sweep-values", "0.1,1,3")
        assert code == 0
        assert [(str(spec), shape) for spec, shape in calls] == [
            ("cmx-knowles:2", (3, 6)), ("pds:3", (3, 6)), ("expectation:1", (3, 6))
        ]
        rows = [line.split(",") for line in stacked.splitlines()[1:]]
        for v, row in zip(("0.1", "1", "3"), rows[1::3]):
            _, text = run_cli("pds", "--order", "3", "--V", v)
            assert f"ground={row[3]} " in text

    def test_pds_report(self):
        code, text = run_cli("pds", "--order", "2", "--V", "1")
        assert code == 0
        assert f"ground={-2 - math.sqrt(6.0):.17g}"[:22] in text

    def test_diag_output(self):
        code, text = run_cli("diag", "--V", "1")
        assert code == 0
        assert "krylov_rank=3" in text
        assert "ground_energy=-4.8284271247461" in text
        fid = float(text.split("trial_fidelity_with_ground=")[1].splitlines()[0])
        assert 0.0 < fid < 1.0

    def test_diag_rank_of_rotated_trial(self):
        code, text = run_cli("diag", "--V", "0.5", "--generator", "YIII", "--theta", "0.3")
        assert code == 0
        assert "krylov_rank=5" in text.splitlines()

    @pytest.mark.parametrize("command", ["moments", "cmx", "pds", "sweep", "noise", "diag"])
    def test_theta_needs_generator(self, capsys, command):
        methods = ("--methods", "pds:2") if command == "sweep" else ()
        assert run_cli(command, "--theta", "0.3", *methods) == (2, "")
        assert "--theta needs --generator" in capsys.readouterr().err

    @pytest.mark.parametrize(("command", "calls"), [
        ("moments", 0), ("noise", 0), ("diag", 1), ("cmx", 1), ("pds", 1),
        ("sweep", 1), ("variational", 1),
    ])
    def test_dense_reference_only_where_printed(self, command, calls):
        extra = {"sweep": ("--methods", "pds:2"),
                 "variational": ("--generator", "YX", "--grid-points", "5")}
        counted = mock.Mock(wraps=cli.exact_diagonalize)
        with mock.patch.object(cli, "exact_diagonalize", counted):
            code, _ = run_cli(command, "--model", "h2", "--g", "0.1,0.4,-0.3,0.2,0.1,0.1",
                              *extra.get(command, ()))
        assert code == 0
        assert counted.call_count == calls

    def test_pauli_route_past_the_dense_limit(self, tmp_path, capsys):
        # 16 qubits: moments and noise need no dense matrix; diag does
        argv = model_past_the_dense_limit(tmp_path)
        code, text = run_cli("moments", *argv)
        assert code == 0
        assert text.splitlines()[2] == "1,0.29999999999999999,0.29999999999999999"
        code, text = run_cli("noise", *argv, "--shots", "64")
        assert code == 0
        assert text.splitlines()[0] == cli.NOISE_HEADER
        assert run_cli("diag", *argv) == (1, "")
        assert "exceeds the dense limit" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["cmx", "pds", "sweep"])
    def test_dense_reference_fails_before_any_moment(self, tmp_path, capsys, command):
        argv = model_past_the_dense_limit(tmp_path)
        methods = ("--methods", "pds:2") if command == "sweep" else ()
        counted = mock.Mock(wraps=cli.raw_moments_pauli)
        with mock.patch.object(cli, "raw_moments_pauli", counted):
            assert run_cli(command, *argv, *methods) == (1, "")
        assert capsys.readouterr().err == "error: 16 qubits exceeds the dense limit of 14\n"
        assert counted.call_count == 0

    def test_noise_subcommand_schema(self):
        code, text = run_cli(
            "noise", "--p00", "0.97", "--p11", "0.97", "--shots", "2048", "--seed", "3"
        )
        lines = text.splitlines()
        assert code == 0
        assert lines[0] == "label,true_expectation,raw_estimate,mitigated_estimate,standard_error,shots"
        assert any(line.startswith("cmx-cioslowski:2") for line in lines)
        assert any(line.startswith("pds:2") for line in lines)


class TestVariationalCommand:
    def test_scan_csv_and_summary(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        code, text = run_cli(
            "variational", "--method", "pds:2", "--generator", "YXXX",
            "--V", "1", "--grid-points", "41", "--output", str(out_csv),
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "theta,energy,i1,i2,i3,singular_flag"
        assert len(lines) == 42
        assert "theta_opt=" in text and "improvement factor" in text
        opt = float(text.split("energy_opt=")[1].split()[0])
        assert opt == pytest.approx(-2.0 - 2.0 * math.sqrt(2.0), abs=1e-6)

    def test_flat_order_one_scan(self):
        code, text = run_cli(
            "variational", "--method", "energy", "--generator", "YXXX",
            "--V", "3", "--grid-points", "11",
        )
        assert code == 0
        for line in text.splitlines()[1:12]:
            assert float(line.split(",")[1]) == pytest.approx(-4.0, abs=1e-10)

    def test_needs_generator(self):
        code, _ = run_cli("variational", "--method", "pds:2")
        assert code == 2


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep defaults\nmethods = pds:2\nsweep-values = 1\n"
            "noise = true\nshots = 2048\nseed = 5\n"
        )
        direct = run_cli(
            "sweep", "--methods", "pds:2", "--sweep-values", "1",
            "--noise", "--shots", "2048", "--seed", "5",
        )
        via_config = run_cli("sweep", "--methods", "pds:2", "--config", str(cfg))
        assert via_config == direct

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep-values = 1\nmethods = pds:2\n")
        _, with_override = run_cli(
            "sweep", "--config", str(cfg), "--sweep-values", "2"
        )
        assert with_override.splitlines()[1].startswith("2,")

    def test_underscore_keys_accepted(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sweep_values = 3\nmethods = pds:2\n")
        code, text = run_cli("sweep", "--config", str(cfg))
        assert code == 0
        assert text.splitlines()[1].startswith("3,")

    def test_missing_config(self):
        code, _ = run_cli("sweep", "--methods", "pds:2", "--config", "/no/such.cfg")
        assert code == 2

    def test_malformed_config_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        code, _ = run_cli("sweep", "--methods", "pds:2", "--config", str(cfg))
        assert code == 2

    def test_config_keys_reach_only_the_chosen_subcommand(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("methods = pds:2\nU = 4\nsweep-values = 1,2\n")
        direct = run_cli("sweep", "--methods", "pds:2", "--U", "4", "--sweep-values", "2")
        assert direct[0] == 0
        assert run_cli("sweep", "--config", str(cfg), "--sweep-values", "2") == direct
        # a key the subcommand does not read is an unrecognized option
        cfg.write_text("methods = pds:2\norder = 3\n")
        assert exit_code("sweep", "--config", str(cfg)) == 2

    @pytest.mark.parametrize("text", ["methods = pds:2\nsweep-values = 1\n",
                                      "methods = pds:2\norder = 3\n"])
    @pytest.mark.parametrize("form", ["split", "joined"])
    def test_config_before_the_subcommand(self, tmp_path, capsys, text, form):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        option = ["--config", str(cfg)] if form == "split" else [f"--config={cfg}"]
        runs = []
        for argv in (["sweep", *option], [*option, "sweep"]):
            out = io.StringIO()
            try:
                code = main(argv, out=out)
            except SystemExit as exc:  # the unread key is a usage error
                code = exc.code
            runs.append((code, out.getvalue(), capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == (0 if "sweep-values" in text else 2)

    @pytest.mark.parametrize("name", ["run.cfg", "missing.cfg"])
    @pytest.mark.parametrize("form", ["split", "joined"])
    def test_config_without_a_subcommand(self, tmp_path, capsys, name, form):
        # with no subcommand the --config tokens are dropped unread, so the
        # call answers as it would without them: the missing subcommand is
        # named, and --help prints the top-level help
        (tmp_path / "run.cfg").write_text("methods = pds:2\nsweep-values = 1\n")
        cfg = tmp_path / name
        option = ["--config", str(cfg)] if form == "split" else [f"--config={cfg}"]
        for extra, code, text in (([], 2, "the following arguments are required: command"),
                                  (["--help"], 0, "positional arguments")):
            runs = []
            for argv in (extra, [*option, *extra]):
                out = io.StringIO()
                with pytest.raises(SystemExit) as exc:
                    main(argv, out=out)
                streams = capsys.readouterr()
                runs.append((exc.value.code, out.getvalue(), streams.out, streams.err))
            assert runs[0] == runs[1]
            assert runs[0][0] == code
            assert text in runs[0][2] + runs[0][3]

    def test_negative_leading_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("g = -0.3,0.35,-0.35,0.18,0.12,0.12\n")
        direct = run_cli("pds", "--model", "h2", "--g=-0.3,0.35,-0.35,0.18,0.12,0.12")
        assert direct[0] == 0
        assert run_cli("pds", "--model", "h2", "--config", str(cfg)) == direct


class TestNonHermitianModel:
    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_every_subcommand_ends_in_one_error_line(self, tmp_path, capsys, command):
        model = tmp_path / "skew.txt"
        model.write_text("-0.25 XXI\n0.5 0.2 ZZI\n0.3 IYY\n")
        argv = [command, "--model", "file", "--hamiltonian-file", str(model), "--trial", "010"]
        argv += {"sweep": ["--methods", "pds:2"], "variational": ["--generator", "YXI"]}.get(
            command, [])
        code, text = run_cli(*argv)
        err = capsys.readouterr().err
        assert (code, text) == (1, "")
        assert err.splitlines() == ["error: not Hermitian: term ZZI has imaginary part 0.2"]


class TestPlotScripts:
    def test_sweep_script_mentions_every_method(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        run_cli(
            "sweep", "--methods", "pds:2,pds:3,cmx-knowles:2",
            "--sweep-values", "0.5,1", "--output", str(out_csv),
        )
        script = emit_plot_script(out_csv)
        text = script.read_text()
        for title in ("pds:2", "pds:3", "cmx-knowles:2", "reference"):
            assert title in text

    def test_variational_script(self, tmp_path):
        out_csv = tmp_path / "scan.csv"
        run_cli(
            "variational", "--method", "pds:2", "--generator", "YXXX",
            "--grid-points", "11", "--output", str(out_csv),
        )
        script = emit_plot_script(out_csv, tmp_path / "scan.gp")
        assert "theta" in script.read_text()

    def test_empty_csv_rejected(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(UsageError):
            emit_plot_script(empty)
        header_only = tmp_path / "header.csv"
        header_only.write_text("theta,energy,i1,i2,i3,singular_flag\n")
        with pytest.raises(UsageError):
            emit_plot_script(header_only)

    def test_unknown_schema_rejected(self, tmp_path):
        odd = tmp_path / "odd.csv"
        odd.write_text("a,b\n1,2\n")
        with pytest.raises(UsageError):
            emit_plot_script(odd)

    def test_emit_via_flag(self, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        gp = tmp_path / "sweep.gp"
        code, _ = run_cli(
            "sweep", "--methods", "pds:2", "--sweep-values", "1",
            "--output", str(out_csv), "--emit-plot", str(gp),
        )
        assert code == 0
        assert gp.exists()

    @pytest.mark.parametrize("csv, script, named", [
        ("sub/a.csv", "b.gp", "sub/a.csv"),
        ("a.csv", "sub/b.gp", "../a.csv"),
        ("sub/a.csv", "sub/b.gp", "a.csv"),
    ])
    def test_script_names_the_csv_from_its_own_directory(
        self, tmp_path, monkeypatch, csv, script, named
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        code, _ = run_cli(
            "sweep", "--methods", "pds:2", "--sweep-values", "1",
            "--output", csv, "--emit-plot", script,
        )
        assert code == 0
        assert Path(script).read_text().count(f'"{named}" using') == 2
        assert (Path(script).parent / named).resolve() == Path(csv).resolve()

    @pytest.mark.parametrize("argv", [
        ("sweep", "--methods", "pds:2", "--sweep-values", "1"),
        ("variational", "--generator", "YXXX", "--grid-points", "5"),
    ], ids=["sweep", "variational"])
    def test_emit_plot_needs_output(self, tmp_path, argv):
        gp = tmp_path / "plot.gp"
        code, text = run_cli(*argv, "--emit-plot", str(gp))
        assert (code, text) == (2, "")
        assert not gp.exists()


class TestOptionsPerSubcommand:
    @pytest.mark.parametrize(
        ("command", "option"), UNREAD_OPTIONS,
        ids=[f"{command}{option[0]}" for command, option in UNREAD_OPTIONS],
    )
    def test_unread_option_is_rejected(self, tmp_path, monkeypatch, command, option):
        monkeypatch.chdir(tmp_path)
        argv = (command, *BASE_ARGV.get(command, ()))
        assert exit_code(*argv) == 0
        assert exit_code(*argv, *option) == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        ("command", "option"), OUT_OF_RANGE,
        ids=[f"{command}{option[0]}={option[1]}" for command, option in OUT_OF_RANGE],
    )
    def test_out_of_range_value_is_usage_error(self, capsys, command, option):
        argv = (command, *BASE_ARGV.get(command, ()))
        assert exit_code(*argv) == 0
        capsys.readouterr()
        assert exit_code(*argv, *option) == 2
        assert f"error: argument {option[0]}: must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--U", "--V", "--mu", "--eps0", "--eps1", "--theta"])
    def test_model_float_must_be_finite(self, capsys, flag, value):
        argv = ("moments", "--generator", "XIII", "--max-order", "2")
        assert exit_code(*argv, f"{flag}=0.5") == 0
        capsys.readouterr()
        assert exit_code(*argv, f"{flag}={value}") == 2
        assert f"error: argument {flag}: must lie in" in capsys.readouterr().err

    def test_largest_shot_count_is_sampled(self):
        code, text = run_cli("noise", "--shots", str(2**63 - 1), "--seed", "1")
        assert code == 0
        assert float(text.splitlines()[1].split(",")[-1]) == float(2**63 - 1)

    def test_noise_subcommand_keeps_its_implied_flag(self):
        argv = ("noise", "--shots", "64", "--seed", "2")
        assert run_cli(*argv, "--noise") == run_cli(*argv)


class TestNarrowParser:
    """A call registers options only on its own subcommand's parser; help and
    usage errors read as if every subcommand had its options."""

    @pytest.fixture(autouse=True)
    def fixed_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_matches_the_full_parser(self, command):
        full, narrow = cli.build_parser(), cli.build_parser(command)
        assert narrow.format_help() == full.format_help()
        assert (subparsers(narrow)[command].format_help()
                == subparsers(full)[command].format_help())

    @pytest.mark.parametrize("argv", [
        ("bogus",), (), ("sweep", "--methods", "pds:2", "--bogus"),
    ], ids=["bogus", "no-arguments", "sweep-bogus"])
    def test_usage_error_matches_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as full:
            cli.build_parser().parse_args(list(argv))
        want = capsys.readouterr()
        assert exit_code(*argv) == full.value.code == 2
        assert capsys.readouterr() == want

    def test_only_the_chosen_subparser_holds_options(self, monkeypatch):
        built = []

        def spy(command=None):
            built.append(build(command))
            return built[-1]

        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", spy)
        assert run_cli("sweep", "--methods", "pds:2", "--sweep-values", "1")[0] == 0
        [parser] = built
        full = subparsers(build())

        def options(p):
            return [a.option_strings for a in p._actions]

        for name, p in subparsers(parser).items():
            if name == "sweep":
                assert options(p) == options(full[name])
                assert ["--methods"] in options(p) and ["--config"] in options(p)
            else:
                assert options(p) == [["-h", "--help"]]


class TestRunConfigValidation:
    """Checks on the run a command line describes: each failure exits 2."""

    def test_model_validation(self):
        assert exit_code("moments", "--model", "bogus") == 2

    def test_h2_needs_coefficients(self, capsys):
        assert run_cli("moments", "--model", "h2") == (2, "")
        assert "h2 model needs --g or --h2-file" in capsys.readouterr().err

    def test_trial_length_checked(self):
        code, _ = run_cli("moments", "--trial", "01")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("moments", "--model", "file"),
        ("moments", "--model", "file", "--hamiltonian-file", "/no/such/ham.txt"),
        ("moments", "--model", "h2", "--g", "1,2,3"),
        ("moments", "--model", "h2", "--g", "1,2,3,4,5,6,7"),
        ("moments", "--g", "1,2,3"),
        ("sweep", "--methods", "pds:2", "--sweep-values", ","),
    ], ids=["file-without-path", "missing-file", "g-three", "g-seven", "g-under-siam",
            "empty-sweep"])
    def test_usage_error(self, capsys, argv):
        assert run_cli(*argv) == (2, "")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ("moments", "--model", "h2", "--g", "1,2,3,4,5,x"),
        ("moments", "--model", "h2", "--g", "1,2,3,4,5,nan"),
        ("sweep", "--methods", "pds:2", "--sweep-values", "1,abc"),
        ("sweep", "--methods", "pds:2", "--sweep-values", "1,nan"),
        ("moments", "--trial", "01a0"),
        ("moments", "--generator", "QQQQ", "--theta", "0.2"),
        ("moments", "--generator", "YX", "--theta", "0.2"),
        ("variational", "--generator", "YX", "--grid-points", "5"),
        ("sweep", "--methods", "hw-series:2:nan", "--sweep-values", "1"),
        ("sweep", "--methods", "hw-series:2:inf", "--sweep-values", "1"),
        ("sweep", "--methods", "hw-series:2:-0.5", "--sweep-values", "1"),
    ], ids=["g-word", "g-nan", "sweep-word", "sweep-nan", "trial-letter", "generator-letter",
            "generator-length", "variational-generator-length", "hw-tau-nan", "hw-tau-inf",
            "hw-tau-negative"])
    def test_malformed_value_is_one_line_usage_error(self, capsys, argv):
        assert run_cli(*argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("cmx", "--V", "1e160"),
        ("sweep", "--methods", "pds:2", "--sweep-values", "1e200"),
        ("cmx", "--U", "1e308", "--V", "1e308"),
        ("noise", "--V", "1e160"),
        ("variational", "--V", "1e160", "--generator", "YXXX", "--grid-points", "5"),
    ], ids=["cmx-V", "sweep-pds", "cmx-U-V", "noise", "variational"])
    def test_overflowing_moments_are_one_line_error(self, capsys, argv):
        # H^2 overflows float64: one error line naming the moment, no NaN row
        assert run_cli(*argv) == (1, "")
        err = capsys.readouterr().err
        assert err == "error: raw moment K_2 = nan is not finite\n"

    def test_noise_orders_checked_before_sampling(self, capsys, tmp_path):
        out_csv = tmp_path / "noise.csv"
        code, _ = run_cli("noise", "--max-order", "2", "--output", str(out_csv))
        assert code == 2
        assert "needs --max-order >= 3" in capsys.readouterr().err
        assert not out_csv.exists()
