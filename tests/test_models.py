"""Benchmark model builders and their analytic references."""

import dataclasses

import numpy as np
import pytest

from cmxlab.errors import HamiltonianParseError
from cmxlab.models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    load_h2_pes,
    siam_fci_energy,
    siam_hamiltonian,
)
from cmxlab.moments import krylov_rank, raw_moments_dense
from cmxlab.statevector import basis_state, exact_diagonalize, expectation

from conftest import dense_of_sum, dense_of_terms, siam_caption_terms


class TestSiam:
    def test_matches_hand_expanded_caption_terms(self):
        p = SiamParams(U=8.0, mu=3.0, eps0=0.5, eps1=2.0, V=1.3)
        ours = dense_of_sum(siam_hamiltonian(p))
        oracle = dense_of_terms(siam_caption_terms(8.0, 3.0, 0.5, 2.0, 1.3))
        assert np.allclose(ours, oracle, atol=1e-12)

    @pytest.mark.parametrize("v", [0.0, 0.7, 3.3, 10.0])
    def test_anchor_fixes_qubit_ordering(self, v):
        # <0110|H|0110> = -4 at half filling for any hybridization; this
        # anchor rejects any alternative qubit assignment
        h = siam_hamiltonian(SiamParams.half_filling(8.0, v))
        assert expectation(h, basis_state("0110")) == pytest.approx(-4.0, abs=1e-12)

    def test_v_zero_is_diagonal(self):
        h = siam_hamiltonian(SiamParams.half_filling(8.0, 0.0))
        assert all(p.x_mask == 0 for p, _ in h.items())

    def test_ground_matches_formula(self):
        h = siam_hamiltonian(SiamParams.half_filling(8.0, 1.0))
        assert exact_diagonalize(h).ground_energy == pytest.approx(
            siam_fci_energy(8.0, 1.0), abs=1e-10
        )

    def test_hermitian(self):
        h = siam_hamiltonian(SiamParams(7.0, 2.0, 0.3, 1.0, 0.4))
        dense = dense_of_sum(h)
        assert h.coeff.dtype == np.float64
        assert np.array_equal(dense, dense.conj().T)

    def test_half_filling_constructor(self):
        p = SiamParams.half_filling(8.0, 2.0)
        assert (p.mu, p.eps0, p.eps1) == (4.0, 0.0, 4.0)
        assert p.is_half_filling
        assert not SiamParams(8.0, 3.0, 0.0, 3.0, 1.0).is_half_filling

    def test_krylov_dimension_three(self):
        h = siam_hamiltonian(SiamParams.half_filling(8.0, 1.0))
        assert krylov_rank(h, basis_state("0110"), max_dim=8) == 3

    def test_serialized_model_reparses_equal(self):
        from cmxlab.pauli import parse_pauli_sum, serialize_pauli_sum

        h = siam_hamiltonian(SiamParams.half_filling(8.0, 1.3))
        assert parse_pauli_sum(serialize_pauli_sum(h)) == h


class TestFciEnergy:
    def test_v_zero(self):
        assert siam_fci_energy(8.0, 0.0) == -4.0

    def test_v_one(self):
        assert siam_fci_energy(8.0, 1.0) == pytest.approx(-2.0 - 2.0 * np.sqrt(2.0), abs=1e-14)

    @pytest.mark.parametrize("v", [0.1, 1.0, 3.0, 6.0, 10.0])
    def test_matches_dense_ground(self, v):
        h = siam_hamiltonian(SiamParams.half_filling(8.0, v))
        assert exact_diagonalize(h).ground_energy == pytest.approx(
            siam_fci_energy(8.0, v), abs=1e-10
        )

    def test_monotone_decreasing_in_v(self):
        grid = np.linspace(0.0, 10.0, 41)
        values = [siam_fci_energy(8.0, v) for v in grid]
        assert all(b < a for a, b in zip(values, values[1:]))


class TestH2Form:
    def test_pure_identity(self):
        h = h2_bk_hamiltonian(H2Coefficients(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        table = raw_moments_dense(h, basis_state("01"), 4)
        assert table.raw == pytest.approx((1.0,) * 5, abs=1e-14)

    def test_diagonal_trial_is_eigenstate(self):
        c = H2Coefficients(0.2, 0.5, -0.4, 0.1, 0.0, 0.0)
        h = h2_bk_hamiltonian(c)
        table = raw_moments_dense(h, basis_state("01"), 4)
        # first-order expansion is exact on an eigenstate
        eig = c.g0 + c.g1 - c.g2 - c.g3
        assert table.connected[0] == pytest.approx(eig, abs=1e-12)
        assert max(abs(v) for v in table.connected[1:]) < 1e-12

    def test_block_decoupling(self, rng):
        for _ in range(10):
            g = rng.uniform(-1.0, 1.0, size=6)
            dense = dense_of_sum(h2_bk_hamiltonian(H2Coefficients(*g)))
            inner = [0b01, 0b10]
            outer = [0b00, 0b11]
            for i in inner:
                for o in outer:
                    assert dense[i, o] == 0.0 and dense[o, i] == 0.0

    def test_six_terms_and_hermitian(self):
        h = h2_bk_hamiltonian(H2Coefficients(0.1, 0.2, 0.3, 0.4, 0.5, 0.6))
        assert len(h) == 6
        dense = dense_of_sum(h)
        assert h.coeff.dtype == np.float64
        assert np.array_equal(dense, dense.conj().T)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            H2Coefficients(0.0, float("nan"), 0.0, 0.0, 0.0, 0.0)


class TestPesLoader:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# R,g0,g1,g2,g3,g4,g5\n\n")
        assert load_h2_pes(path) == []

    def test_header_row_accepted(self, tmp_path):
        path = tmp_path / "pes.csv"
        path.write_text("R,g0,g1,g2,g3,g4,g5\n0.75,0.1,0.2,0.3,0.4,0.5,0.6\n")
        rows = load_h2_pes(path)
        assert len(rows) == 1
        r, c = rows[0]
        assert r == 0.75
        assert dataclasses.astuple(c)[:6] == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
        assert c.r == 0.75

    def test_single_row_round_trip(self, tmp_path):
        path = tmp_path / "row.csv"
        values = (0.9, -0.35, 0.18, -0.18, 0.12, 0.04, 0.04)
        path.write_text(",".join(str(v) for v in values) + "\n")
        ((r, c),) = load_h2_pes(path)
        assert (r, *dataclasses.astuple(c)[:6]) == values

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.75,0.1,0.2,0.3,0.4,0.5,0.6\n0.8,0.1,0.2\n")
        with pytest.raises(HamiltonianParseError) as err:
            load_h2_pes(path)
        assert err.value.line_number == 2

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.75,a,0.2,0.3,0.4,0.5,0.6\n")
        with pytest.raises(HamiltonianParseError):
            load_h2_pes(path)

    def test_loaded_row_supports_dense_reference(self, tmp_path):
        # any loaded row gets its reference energy from exact diagonalization,
        # whatever its physical provenance
        path = tmp_path / "pes.csv"
        path.write_text("0.75,-0.3,0.35,-0.35,0.18,0.12,0.12\n")
        ((_, c),) = load_h2_pes(path)
        h = h2_bk_hamiltonian(c)
        spectrum = exact_diagonalize(h)
        dense = dense_of_sum(h)
        assert spectrum.ground_energy == pytest.approx(
            float(np.linalg.eigvalsh(dense)[0]), abs=1e-12
        )

    def test_template_ships_documented_placeholder(self):
        from pathlib import Path

        template = Path(__file__).resolve().parents[1] / "data" / "h2_pes_template.csv"
        assert template.exists()
        assert load_h2_pes(template) == []
        text = template.read_text()
        assert "R,g0,g1,g2,g3,g4,g5" in text
