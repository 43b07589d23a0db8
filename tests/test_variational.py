"""Trial-rotation scans: the flagship second-order minimization workflow."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmxlab import variational
from cmxlab.errors import ContractViolationError, DimensionMismatchError, SingularScanError
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    siam_fci_energy,
    siam_hamiltonian,
)
from cmxlab.moments import MomentRows, MomentTable, hamiltonian_powers, raw_moments_dense, raw_moments_pauli
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import (
    StateVector,
    apply_generator_rotation,
    apply_pauli,
    basis_state,
    exact_diagonalize,
    fidelity,
)
from cmxlab.variational import (
    default_theta_grid,
    deviation_report,
    energy_vs_theta,
)

from conftest import coefficient_norm, random_hermitian_sum

GENERATOR = PauliString.from_label("YXXX")
PDS2_V1 = -2.0 - math.sqrt(6.0)


def siam(v=1.0):
    return siam_hamiltonian(SiamParams.half_filling(8.0, v))


class TestOrderOneScan:
    def test_flat_at_minus_four(self):
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "expectation", refine=False
        )
        assert max(abs(e + 4.0) for e in scan.energies) < 1e-10

    @pytest.mark.parametrize("v", [0.1, 3.0, 10.0])
    def test_flat_for_any_hybridization(self, v):
        grid = np.linspace(-1.5, 1.5, 7)
        scan = energy_vs_theta(
            siam(v), basis_state("0110"), GENERATOR, "expectation",
            theta_grid=grid, refine=False,
        )
        assert max(abs(e + 4.0) for e in scan.energies) < 1e-10


class TestPds2Scan:
    def test_optimum_at_quarter_pi(self):
        scan = energy_vs_theta(siam(1.0), basis_state("0110"), GENERATOR, "pds:2")
        fci = siam_fci_energy(8.0, 1.0)
        assert abs(abs(scan.theta_opt) - math.pi / 4.0) < 0.05
        assert scan.theta_opt == pytest.approx(-math.pi / 4.0, abs=1e-5)
        assert scan.energy_opt == pytest.approx(fci, abs=1e-6)

    def test_theta_zero_matches_unrotated_solver(self):
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "pds:2", refine=False
        )
        zero_index = scan.theta_grid.index(0.0)
        assert scan.energies[zero_index] == pytest.approx(PDS2_V1, abs=1e-10)

    def test_grid_contains_zero_and_quarter_pi(self):
        grid = default_theta_grid()
        assert 0.0 in set(np.round(grid, 15))
        assert any(abs(t + math.pi / 4.0) < 1e-12 for t in grid)

    def test_moments_at_opt_present(self):
        scan = energy_vs_theta(siam(1.0), basis_state("0110"), GENERATOR, "pds:2")
        assert scan.moments_at_opt.connected
        assert scan.moments_at_opt.connected[0] == pytest.approx(-4.0, abs=1e-10)

    def test_periodicity(self):
        thetas = [-1.2, -0.5, 0.0, 0.3, 1.0]
        scan_lo = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "pds:2",
            theta_grid=thetas, refine=False,
        )
        scan_hi = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "pds:2",
            theta_grid=[t + math.pi for t in thetas], refine=False,
        )
        for lo, hi in zip(scan_lo.energies, scan_hi.energies):
            assert hi == pytest.approx(lo, abs=1e-10)

    def test_fidelity_improves_at_optimum(self):
        h = siam(1.0)
        ground = exact_diagonalize(h).ground_vector
        scan = energy_vs_theta(h, basis_state("0110"), GENERATOR, "pds:2")
        from cmxlab.statevector import apply_generator_rotation

        base = basis_state("0110")
        rotated = apply_generator_rotation(scan.theta_opt, GENERATOR, base)
        assert fidelity(rotated, ground) > fidelity(base, ground)


@st.composite
def scan_inputs(draw):
    """A Hermitian sum on 1-5 qubits, a complex normalised base, a
    phaseless generator and an angle, all at random."""
    n = draw(st.integers(1, 5))
    mask = st.integers(0, (1 << n) - 1)
    coeff = st.floats(-1.0, 1.0, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(mask, mask, coeff), min_size=1, max_size=8))
    h = PauliSum(n, [(PauliString(n, x, z), c) for x, z, c in terms])
    parts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2 << n, max_size=2 << n))
    amps = np.array(parts[: 1 << n]) + 1j * np.array(parts[1 << n:])
    assume(np.linalg.norm(amps) > 1e-3)
    base = StateVector(n, amps / np.linalg.norm(amps))
    generator = PauliString(n, draw(mask), draw(mask))
    theta = draw(st.floats(-math.pi, math.pi))
    return h, base, generator, theta


class TestThreeStateIdentity:
    @given(scan_inputs())
    @settings(max_examples=150, deadline=None)
    def test_moments_match_the_rotated_state(self, inputs):
        h, base, generator, theta = inputs
        scan = energy_vs_theta(
            h, base, generator, "hw-series:4:0.5", theta_grid=[theta], refine=False
        )
        rotated = apply_generator_rotation(theta, generator, base)
        want = raw_moments_dense(h, rotated, 5).raw
        norm = coefficient_norm(h)
        got = scan.moments_at_opt.raw
        assert got[0] == 1.0 and len(got) == len(want)
        for order, (a, b) in enumerate(zip(got, want)):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b), norm**order)

    def test_scan_measures_three_states(self, monkeypatch):
        calls = []
        measure = variational.raw_moments_pauli

        def counted(*args, **kwargs):
            calls.append(args[1])
            return measure(*args, **kwargs)

        monkeypatch.setattr(variational, "raw_moments_pauli", counted)
        scan = energy_vs_theta(siam(1.0), basis_state("0110"), GENERATOR, "pds:2")
        assert len(scan.theta_grid) == 81
        assert len(calls) == 3

    def test_theta_zero_gives_the_base_moments_exactly(self, rng):
        h = random_hermitian_sum(rng, 4, 10)
        amps = rng.normal(size=16) + 1j * rng.normal(size=16)
        base = StateVector(4, amps / np.linalg.norm(amps))
        scan = energy_vs_theta(
            h, base, GENERATOR, "hw-series:4:0.5", theta_grid=[0.0], refine=False
        )
        want, _ = variational.raw_moments_pauli(h, base, 5)
        assert scan.moments_at_opt.raw == want.raw


def golden_section(fn, lo, hi):
    """The sequential golden-section search, one probe per call of fn: the
    oracle of the scan's look-ahead refinement."""
    g = variational.GOLDEN_RATIO
    x1 = hi - g * (hi - lo)
    x2 = lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > variational.REFINE_TOLERANCE:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


def per_angle_scan(h, base, generator, method, grid):
    """The scan angle by angle: one `MomentTable` and one `evaluate_method`
    per grid point and per refinement probe, from the same three measured
    states."""
    spec = parse_method(method)
    max_order = max(spec.required_max_order, 3)
    powers = hamiltonian_powers(h, max_order)

    def measured(state):
        return np.array(raw_moments_pauli(h, state, max_order, powers=powers)[0].raw)

    alpha = measured(base)
    beta = measured(apply_pauli(generator, base))
    anchor = apply_generator_rotation(variational.ANCHOR_THETA, generator, base)
    c_a, s_a = np.cos(variational.ANCHOR_THETA), np.sin(variational.ANCHOR_THETA)
    gamma = (measured(anchor) - c_a * c_a * alpha - s_a * s_a * beta) / (s_a * c_a)

    def table_at(theta):
        c, s = np.cos(theta), np.sin(theta)
        raw = c * c * alpha + s * s * beta + s * c * gamma
        raw[0] = 1.0
        return MomentTable(tuple(raw.tolist()))

    def value_at(theta):
        value = evaluate_method(spec, table_at(theta))
        return value.energy, value.singular_flag or not math.isfinite(value.energy)

    tables = [table_at(float(t)) for t in grid]
    values = [value_at(float(t)) for t in grid]
    usable = [i for i, (_, bad) in enumerate(values) if not bad]
    best = min(usable, key=lambda i: values[i][0])
    theta_opt, energy_opt = float(grid[best]), values[best][0]
    lo, hi = float(grid[max(best - 1, 0)]), float(grid[min(best + 1, len(grid) - 1)])
    theta_ref, energy_ref = golden_section(
        lambda t: math.inf if value_at(t)[1] else value_at(t)[0], lo, hi
    )
    if energy_ref <= energy_opt:
        theta_opt, energy_opt = theta_ref, energy_ref
    return variational.ScanResult(
        theta_grid=tuple(float(t) for t in grid),
        energies=tuple(e for e, _ in values),
        i1=tuple(t.connected[0] for t in tables),
        i2=tuple(t.connected[1] for t in tables),
        i3=tuple(t.connected[2] for t in tables),
        singular_flags=tuple(bad for _, bad in values),
        theta_opt=theta_opt,
        energy_opt=energy_opt,
        moments_at_opt=table_at(theta_opt),
    )


def hex_fields(scan):
    """Every field of a scan, floats as their exact hex strings."""
    def exact(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, tuple):
            return tuple(exact(v) for v in value)
        return value

    return {name: exact(getattr(scan, name)) for name in (
        "theta_grid", "energies", "i1", "i2", "i3", "singular_flags", "theta_opt",
        "energy_opt")} | {"raw_at_opt": exact(scan.moments_at_opt.raw),
                          "connected_at_opt": exact(scan.moments_at_opt.connected)}


SCAN_METHODS = ["pds:3", "pds:2", "cmx-cioslowski:3", "cmx-knowles:3", "hw-series:3:0.5",
                "expectation"]


class TestStackedGridOracle:
    """The grid is solved in one stacked call and the refinement probes a
    few steps ahead per stacked call, over a top power formed only where the
    three states can see; every field of the result equals the
    angle-by-angle scan over whole powers bit for bit."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("method", SCAN_METHODS)
    def test_scan_equals_the_per_angle_loop(self, seed, method):
        self.check(seed, method, "basis")

    @pytest.mark.parametrize("kind", ["dense", "rotated"])
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("method", SCAN_METHODS)
    def test_off_basis_scan_equals_the_per_angle_loop(self, kind, seed, method):
        self.check(seed, method, kind)

    @staticmethod
    def check(seed, method, kind):
        rng = np.random.default_rng(seed)
        n = 3 + seed % 4
        h = random_hermitian_sum(rng, n, 6 + 3 * n)
        base = basis_state("".join(rng.choice(["0", "1"], size=n)))
        generator = PauliString.from_label("Y" + "".join(rng.choice(list("XZI"), size=n - 1)))
        if kind == "dense":
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            base = StateVector(n, amps / np.linalg.norm(amps))
        elif kind == "rotated":
            # off the computational basis, but seeing only a few x-masks
            base = apply_generator_rotation(0.3, PauliString.from_label("X" * n), base)
        grid = default_theta_grid(41)
        scan = energy_vs_theta(h, base, generator, method, theta_grid=grid)
        assert hex_fields(scan) == hex_fields(per_angle_scan(h, base, generator, method, grid))


def quantised_bowls(draw_width):
    """A bracket and an objective on it: a bowl rounded to a drawn step, so
    that probes tie (f1 == f2), with inf plateaus where rows are singular."""

    @st.composite
    def build(draw):
        lo = draw(st.floats(-2.0, 2.0))
        hi = lo + draw(draw_width)
        centre = draw(st.floats(lo - 0.5, hi + 0.5))
        step = draw(st.sampled_from([0.0, 1e-14, 1e-9, 1e-3, 1.0, math.inf]))
        plateaus = draw(st.lists(st.tuples(st.floats(lo, hi), st.floats(0.0, 0.5)), max_size=3))

        def fn(theta):
            if any(start <= theta <= start + width for start, width in plateaus):
                return math.inf
            value = (theta - centre) ** 2
            if step == math.inf:
                return 0.0
            return round(value / step) * step if step else value

        return fn, lo, hi

    return build()


TOL = variational.REFINE_TOLERANCE
# zero or one step, at and near the stopping width, then a few steps more
NARROW = st.sampled_from([0.0, TOL / 2, TOL, TOL * (1 + 1e-9), TOL / variational.GOLDEN_RATIO,
                          TOL / variational.GOLDEN_RATIO ** 2 * 1.01, 3 * TOL])
WIDE = st.floats(0.0, 1.0)


class TestLookAheadRefinement:
    """The refinement solves the probes of LOOKAHEAD_STEPS steps per call
    and walks them with the sequential search's comparisons."""

    @given(quantised_bowls(st.one_of(NARROW, WIDE)))
    @settings(max_examples=300, deadline=None)
    def test_walk_returns_the_sequential_result(self, case):
        fn, lo, hi = case
        probes, calls = [], []

        def solve(angles):
            calls.append(list(angles))
            return [fn(theta) for theta in angles]

        got = variational._golden_section(solve, lo, hi)
        want = golden_section(lambda theta: probes.append(theta) or fn(theta), lo, hi)
        assert (got[0].hex(), got[1]) == (want[0].hex(), want[1])
        # every sequential probe was solved, two at first, then at most
        # 2**steps - 1 per call, one call per LOOKAHEAD_STEPS steps
        steps = variational.LOOKAHEAD_STEPS
        assert set(probes) <= {theta for angles in calls for theta in angles}
        assert len(calls[0]) == 2 and all(len(a) < 2**steps for a in calls[1:])
        assert len(calls) <= 1 + math.ceil((len(probes) - 2) / steps)

    def test_a_full_look_ahead_is_one_call_of_seven_rows(self):
        calls = []
        variational._golden_section(
            lambda angles: calls.append(len(angles)) or [(t - 0.3) ** 2 for t in angles],
            0.0, 1.0,
        )
        assert calls[0] == 2 and set(calls[1:-1]) == {7}

    def test_no_probe_is_solved_past_the_tolerance(self):
        # one step narrows this bracket below REFINE_TOLERANCE, so its
        # look-ahead call solves that step's probe alone
        calls = []
        variational._golden_section(
            lambda angles: calls.append(len(angles)) or [t * t for t in angles], 0.0, TOL * 1.0001)
        assert calls == [2, 1]

    def test_a_scan_solves_a_few_stacked_calls(self, monkeypatch):
        solves = []
        solve_rows = variational.evaluate_rows

        def counted(spec, rows):
            solves.append(len(rows.raw))
            return solve_rows(spec, rows)

        monkeypatch.setattr(variational, "evaluate_rows", counted)
        energy_vs_theta(siam(1.0), basis_state("0110"), GENERATOR, "pds:2")
        # the grid, the two first probes, then 24 steps three at a time
        assert solves == [81, 2] + [7] * 8


MAX_FLOAT = float(np.finfo(float).max)


def designed_moments(monkeypatch, curves):
    """Give the scan's three measured states designed moments: curve l is
    (A, R, phi), so that K_l(theta) = A + R cos(2 (theta - phi)).  The states
    are measured in the order |base>, G|base>, anchor, at the angles 0,
    pi/2 and ANCHOR_THETA."""
    angles = iter((0.0, math.pi / 2.0, variational.ANCHOR_THETA))

    def measured(h, state, max_order, powers=None):
        theta = next(angles)
        raw = [1.0] + [a + r * math.cos(2.0 * (theta - phi)) for a, r, phi in curves]
        return MomentTable(tuple(raw)), None

    monkeypatch.setattr(variational, "raw_moments_pauli", measured)


class TestNonFiniteProbes:
    """An `expectation` scan whose energy K_1 is a bowl at MINIMUM and whose
    K_3 overflows within about 0.01 of one angle: a look-ahead row that the
    search never reads does not fail the scan, and a row it reads raises
    what the row's `MomentTable` raises."""

    MINIMUM = 0.28
    GRID = (0.1, MINIMUM, 0.5)

    def scan(self, monkeypatch, poison=None):
        bowl = (0.0, -1.0, self.MINIMUM)
        k2 = (1.0, 0.0, 0.0)
        # A + R exceeds the largest float by 1e-4 of it: K_3 overflows only
        # where cos(2 (theta - poison)) > 1 - 2e-4
        peak = (0.0, 0.0, 0.0) if poison is None else (MAX_FLOAT * 0.50005,) * 2 + (poison,)
        designed_moments(monkeypatch, [bowl, k2, peak])
        return energy_vs_theta(PauliSum.from_label_terms([(1.0, "Z")]), basis_state("0"),
                               PauliString.from_label("Y"), "expectation",
                               theta_grid=self.GRID)

    def probes(self):
        """The angles the sequential search reads, and those of the first
        look-ahead call, on the bowl."""
        def bowl(theta):
            return -math.cos(2.0 * (theta - self.MINIMUM))

        path, calls = [], []
        golden_section(lambda theta: path.append(theta) or bowl(theta), self.GRID[0], self.GRID[-1])
        variational._golden_section(
            lambda angles: calls.append(angles) or [bowl(t) for t in angles],
            self.GRID[0], self.GRID[-1],
        )
        return path, calls[1]

    def test_an_unread_row_does_not_fail_the_scan(self, monkeypatch):
        path, ahead = self.probes()
        unread = [t for t in ahead if t not in path]
        # the unread probe farthest from every angle the scan reads
        poison = max(unread, key=lambda t: min(abs(t - p) for p in path + list(self.GRID)))
        assert min(abs(poison - p) for p in path + list(self.GRID)) > 0.03
        rejected = []

        def checked(raw):
            try:
                return MomentRows(raw)
            except ContractViolationError:
                rejected.append(len(raw))
                raise

        monkeypatch.setattr(variational, "MomentRows", checked)
        got = hex_fields(self.scan(monkeypatch, poison))
        # the seven-row call failed, then the poisoned row alone
        assert rejected == [7, 1]
        want = hex_fields(self.scan(monkeypatch))
        # K_3 differs, and with it I_3; the energies and the optimum do not
        for name in ("theta_grid", "energies", "i1", "i2", "singular_flags", "theta_opt",
                     "energy_opt"):
            assert got[name] == want[name]

    def test_a_read_row_raises_its_tables_error(self, monkeypatch):
        path, ahead = self.probes()
        # the first probe the look-ahead solves is read by the search
        assert ahead[0] == path[2]
        with pytest.raises(ContractViolationError) as error:
            self.scan(monkeypatch, ahead[0])
        with pytest.raises(ContractViolationError) as table_error:
            MomentTable((1.0, -1.0, 1.0, math.inf))
        assert str(error.value) == str(table_error.value) == "raw moment K_3 = inf is not finite"


class TestScanErrors:
    """A scan raises what measuring its states raises, in the same order."""

    def test_generator_of_another_size_is_rejected_first(self):
        # H is of another size too, but the rotation is checked first
        with pytest.raises(DimensionMismatchError) as error:
            energy_vs_theta(PauliSum.from_label_terms([(1.0, "ZZ")]), basis_state("0110"),
                            PauliString.from_label("YX"), "pds:2")
        with pytest.raises(DimensionMismatchError) as rotation_error:
            apply_generator_rotation(0.1, PauliString.from_label("YX"), basis_state("0110"))
        assert str(error.value) == str(rotation_error.value)

    @pytest.mark.parametrize("labels", [("ZZ", "XX"), ("ZZIIII", "XXIIXY")])
    def test_hamiltonian_of_another_size(self, labels):
        # fewer or more qubits than the base, whose x-masks the scan tabulates
        h = PauliSum.from_label_terms([(1.0, labels[0]), (0.5, labels[1])])
        base = basis_state("0110")
        with pytest.raises(DimensionMismatchError) as error:
            energy_vs_theta(h, base, GENERATOR, "pds:2")
        with pytest.raises(DimensionMismatchError) as measure_error:
            raw_moments_pauli(h, base, 3)
        assert str(error.value) == str(measure_error.value)

    def test_unnormalised_base(self):
        base = StateVector(4, 2.0 * basis_state("0110").amplitudes)
        with pytest.raises(ContractViolationError) as error:
            energy_vs_theta(siam(1.0), base, GENERATOR, "pds:2")
        with pytest.raises(ContractViolationError) as measure_error:
            raw_moments_pauli(siam(1.0), base, 3)
        assert str(error.value) == str(measure_error.value)


class TestBelowGroundScan:
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: the eigenstate floor of _linalg.unit_free scales with the "
        "mean, not the spread, so a near-eigenstate row gets a spurious PDS(2) root"))
    def test_h2_xy_scan_stays_above_the_ground(self):
        # at the refined theta ~ 0.1294 the trial is almost the top
        # eigenstate: m_2 = 1.83e-12 passes the floor 1e-10 * K_1**2 =
        # 1.52e-12, and the PDS(2) root there lies below the exact ground
        h = h2_bk_hamiltonian(H2Coefficients(-0.4, 0.34, -0.34, 0.18, 0.09, 0.09))
        scan = energy_vs_theta(h, basis_state("01"), PauliString.from_label("XY"), "pds:2",
                               theta_grid=default_theta_grid(5))
        ground = exact_diagonalize(h).ground_energy
        assert scan.energy_opt >= ground - 1e-12


class TestAlternativeGenerators:
    def test_xyxx_reaches_fci(self):
        fci = siam_fci_energy(8.0, 1.0)
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), PauliString.from_label("XYXX"), "pds:2"
        )
        assert scan.energy_opt == pytest.approx(fci, abs=1e-6)
        assert abs(abs(scan.theta_opt) - math.pi / 4.0) < 0.05

    def test_two_qubit_generator_improves_but_stays_short(self):
        # a two-site generator cannot flip all four bits, so the rotated
        # trial never reaches the symmetric superposition the exact ground
        # state needs; the scan still improves on theta = 0
        fci = siam_fci_energy(8.0, 1.0)
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), PauliString.from_label("YXII"), "pds:2"
        )
        zero_index = min(
            range(len(scan.theta_grid)), key=lambda i: abs(scan.theta_grid[i])
        )
        assert scan.energy_opt < scan.energies[zero_index] - 0.05
        assert scan.energy_opt - fci > 1e-3


class TestDeviationReport:
    def test_pds2_sweep_report(self):
        fci = siam_fci_energy(8.0, 1.0)
        scan = energy_vs_theta(siam(1.0), basis_state("0110"), GENERATOR, "pds:2")
        report = deviation_report(scan, fci)
        assert report.dev_at_zero == pytest.approx(abs(PDS2_V1 - fci), abs=1e-9)
        assert report.dev_at_zero == pytest.approx(0.37893738196301197, abs=1e-9)
        if report.infinite_improvement:
            assert report.dev_at_opt == 0.0
        else:
            assert report.improvement_factor > 100.0

    def test_infinite_flag(self):
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "expectation",
            theta_grid=[0.0, 0.5], refine=False,
        )
        report = deviation_report(scan, -4.0)
        assert report.infinite_improvement
        assert math.isinf(report.improvement_factor)

    def test_non_finite_reference_rejected(self):
        scan = energy_vs_theta(
            siam(1.0), basis_state("0110"), GENERATOR, "expectation",
            theta_grid=[0.0], refine=False,
        )
        with pytest.raises(ValueError):
            deviation_report(scan, math.nan)


class TestScanFailures:
    def test_all_singular_scan_raises_with_diagnostics(self):
        # a pure identity Hamiltonian has I2 = I3 = 0 everywhere: every
        # second-order denominator is singular at every angle
        h = PauliSum.from_label_terms([(2.0, "IIII")])
        with pytest.raises(SingularScanError) as err:
            energy_vs_theta(
                h, basis_state("0110"), GENERATOR, "cmx-cioslowski:2",
                theta_grid=[0.0, 0.4, 0.9], refine=False,
            )
        assert err.value.diagnostics["flags"] == (True, True, True)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            energy_vs_theta(
                siam(1.0), basis_state("0110"), GENERATOR, "pds:2", theta_grid=[]
            )
