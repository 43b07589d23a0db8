"""Trial-rotation scans: the flagship second-order minimization workflow."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmxlab import variational
from cmxlab.errors import SingularScanError
from cmxlab.models import SiamParams, siam_fci_energy, siam_hamiltonian
from cmxlab.moments import raw_moments_dense
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import (
    StateVector,
    apply_generator_rotation,
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
