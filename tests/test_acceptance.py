"""Acceptance suite: every criterion at its stated tolerance, one printed
pass line per criterion.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import io
import math
import time
from pathlib import Path

import numpy as np
import pytest

from cmxlab.cli import main
from cmxlab.cmx import cmx_cioslowski, cmx_knowles
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.models import (
    H2Coefficients,
    SiamParams,
    h2_bk_hamiltonian,
    siam_fci_energy,
    siam_hamiltonian,
)
from cmxlab.moments import raw_moments_dense, raw_moments_pauli
from cmxlab.noise import NoiseModel, hadamard_test_estimate, noisy_moments
from cmxlab.pauli import PauliSum
from cmxlab.pds import solve_pds
from cmxlab.statevector import StateVector, basis_state, exact_diagonalize
from cmxlab.variational import deviation_report, energy_vs_theta

from conftest import cmx_closed_form, h2_block_eigenvalues, random_hermitian_sum

V_SWEEP = (0.1, 0.5, 1.0, 2.0, 3.0, 6.0, 10.0)
V_VARIATIONAL = (0.1, 1.0, 3.0, 6.0, 10.0)
GOLDEN = Path(__file__).parent / "golden" / "siam_noise_sweep.csv"


class _Timer:
    def __init__(self, name, budget):
        self.name = name
        self.budget = budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.name} took {elapsed:.2f} s, budget {self.budget} s"
            )


def half_filling(v):
    return siam_hamiltonian(SiamParams.half_filling(8.0, v))


def test_1_siam_analytic_agreement():
    with _Timer("1 SIAM analytic agreement", budget=1.0):
        for v in V_SWEEP:
            ground = exact_diagonalize(half_filling(v)).ground_energy
            assert ground == pytest.approx(siam_fci_energy(8.0, v), abs=1e-10)


def test_2_pds_saturation():
    with _Timer("2 PDS saturation", budget=5.0):
        for v in V_SWEEP:
            table, _ = raw_moments_pauli(half_filling(v), basis_state("0110"), 7)
            fci = siam_fci_energy(8.0, v)
            assert solve_pds(table, 3).ground_energy == pytest.approx(fci, abs=1e-8)
            assert solve_pds(table, 4).ground_energy == pytest.approx(fci, abs=1e-8)
        table, _ = raw_moments_pauli(half_filling(1.0), basis_state("0110"), 3)
        assert solve_pds(table, 2).ground_energy == pytest.approx(
            -2.0 - math.sqrt(6.0), abs=1e-10
        )


def test_3_two_qubit_block_exactness():
    with _Timer("3 Two-qubit block exactness", budget=5.0):
        rng = np.random.default_rng(101)
        count = 0
        while count < 25:
            g = rng.uniform(-1.0, 1.0, size=6)
            if abs(g[4] + g[5]) < 0.05:
                continue  # trial must couple inside the block
            count += 1
            h = h2_bk_hamiltonian(H2Coefficients(*g))
            table, _ = raw_moments_pauli(h, basis_state("01"), 3)
            low, _high = h2_block_eigenvalues(g)
            assert solve_pds(table, 2).ground_energy == pytest.approx(low, abs=1e-12)


def test_4_cmx_internal_consistency():
    with _Timer("4 CMX internal consistency", budget=1.0):
        rng = np.random.default_rng(202)
        done = 0
        while done < 100:
            ivals = [float(x) for x in rng.uniform(-2.0, 2.0, size=5)]
            if abs(ivals[2]) < 0.05 or abs(ivals[4] * ivals[2] - ivals[3] ** 2) < 0.05:
                continue  # unguarded closed forms need usable denominators
            done += 1
            assert cmx_cioslowski(ivals, 2).energy == pytest.approx(
                cmx_closed_form(ivals, 2), rel=1e-12, abs=1e-12
            )
            assert cmx_cioslowski(ivals, 3).energy == pytest.approx(
                cmx_closed_form(ivals, 3), rel=1e-12, abs=1e-12
            )
            if abs(ivals[2]) > 1e-10:
                assert cmx_knowles(ivals, 2).energy == pytest.approx(
                    cmx_cioslowski(ivals, 2).energy, rel=1e-12, abs=1e-12
                )


def test_5_moments_oracle_equivalence():
    with _Timer("5 Moments oracle equivalence", budget=30.0):
        rng = np.random.default_rng(303)
        for _ in range(100):
            n = int(rng.integers(2, 5))
            h = random_hermitian_sum(rng, n, int(rng.integers(4, 10)))
            amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
            amps /= np.linalg.norm(amps)
            state = StateVector(n, amps)
            via_pauli, _ = raw_moments_pauli(h, state, 7)
            via_dense = raw_moments_dense(h, state, 7)
            for kp, kd in zip(via_pauli.raw, via_dense.raw):
                assert kp == pytest.approx(kd, rel=1e-10, abs=1e-10)
            hankel = np.array(
                [[via_dense.raw[i + j] for j in range(4)] for i in range(4)]
            )
            assert np.linalg.eigvalsh(hankel).min() > -1e-9


def test_6_variational_pds2():
    with _Timer("6 Variational PDS(2)", budget=30.0):
        generator = "YXXX"
        factors = []
        for v in V_VARIATIONAL:
            h = half_filling(v)
            base = basis_state("0110")
            fci = siam_fci_energy(8.0, v)
            scan = energy_vs_theta(
                h, base, __import__("cmxlab").PauliString.from_label(generator), "pds:2"
            )
            assert scan.energy_opt == pytest.approx(fci, abs=1e-6)
            assert abs(abs(scan.theta_opt) - math.pi / 4.0) < 0.05
            report = deviation_report(scan, fci)
            factors.append(report.improvement_factor)
            flat = energy_vs_theta(
                h, base, __import__("cmxlab").PauliString.from_label(generator),
                "expectation", refine=False,
            )
            assert max(abs(e + 4.0) for e in flat.energies) < 1e-10
        assert float(np.mean(factors)) >= 100.0


def test_7_shift_covariance():
    with _Timer("7 Shift covariance", budget=5.0):
        rng = np.random.default_rng(404)
        shift = 1.5
        for _ in range(20):
            n = int(rng.integers(2, 4))
            h = random_hermitian_sum(rng, n, 6)
            shifted = h + PauliSum.from_label_terms([(shift, "I" * n)])
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            state = basis_state(bits)
            base = raw_moments_pauli(h, state, 7)[0]
            moved = raw_moments_pauli(shifted, state, 7)[0]
            assert moved.connected[0] - base.connected[0] == pytest.approx(
                shift, abs=1e-9
            )
            for k in range(1, 7):
                assert moved.connected[k] == pytest.approx(
                    base.connected[k], abs=1e-9
                )
            for order in (2, 3):
                delta = (
                    cmx_cioslowski(moved, order).energy
                    - cmx_cioslowski(base, order).energy
                )
                assert delta == pytest.approx(shift, abs=1e-9)
                delta = (
                    cmx_knowles(moved, order).energy
                    - cmx_knowles(base, order).energy
                )
                assert delta == pytest.approx(shift, abs=1e-9)
            for order in (1, 2, 3):
                before = solve_pds(base, order)
                after = solve_pds(moved, order)
                assert len(before.real_roots_sorted) == len(after.real_roots_sorted)
                for rb, ra in zip(before.real_roots_sorted, after.real_roots_sorted):
                    assert ra - rb == pytest.approx(shift, abs=1e-9)


def test_8_noise_statistics():
    with _Timer("8 Noise statistics", budget=60.0):
        # 1/sqrt(shots) scaling with perfect readout
        x = 0.4
        for shots in (10**2, 10**4, 10**6):
            raws = [
                hadamard_test_estimate(x, NoiseModel(shots=shots, seed=s)).raw_estimate
                for s in range(200)
            ]
            spread = float(np.std(raws))
            assert 0.5 / math.sqrt(shots) <= spread <= 2.0 / math.sqrt(shots)

        # unbiased mitigation at p00 = p11 = 0.97 over 200 seeds
        values = [
            hadamard_test_estimate(
                x, NoiseModel(p00=0.97, p11=0.97, shots=8192, seed=s)
            ).mitigated_estimate
            for s in range(200)
        ]
        mean = float(np.mean(values))
        sem = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(mean - x) <= 3.0 * sem

        # bit-reproducibility
        nm = NoiseModel(p00=0.97, p11=0.97, shots=4096, seed=99)
        h = half_filling(1.0)
        first, _ = noisy_moments(h, basis_state("0110"), 3, nm, depth_proxy=(2, 1))
        second, _ = noisy_moments(h, basis_state("0110"), 3, nm, depth_proxy=(2, 1))
        assert first.raw == second.raw

        # noisy second-order estimates stay finite across the sweep
        spec = parse_method("pds:2")
        for v in V_VARIATIONAL:
            table, _ = noisy_moments(
                half_filling(v), basis_state("0110"), 3, nm, depth_proxy=(2, 1)
            )
            value = evaluate_method(spec, table)
            assert math.isfinite(value.energy)

        # noise regularizes an exactly singular noiseless expansion
        c = H2Coefficients(0.0, 0.3, 0.3, -0.1, 0.25, 0.25)
        h2 = h2_bk_hamiltonian(c)
        clean = cmx_cioslowski(
            raw_moments_pauli(h2, basis_state("01"), 3)[0], 2
        )
        assert clean.singular_flag
        noisy_table, _ = noisy_moments(h2, basis_state("01"), 3, nm, depth_proxy=(1, 1))
        noisy = cmx_cioslowski(noisy_table, 2)
        assert math.isfinite(noisy.energy)


def test_9_golden_cli_run(tmp_path):
    with _Timer("9 Golden CLI run", budget=5.0):
        out_csv = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--methods", "cmx-cioslowski:2,pds:2",
                "--sweep-values", "0.5,1,2",
                "--noise", "--p00", "0.97", "--p11", "0.96",
                "--p1", "0.001", "--p2", "0.01",
                "--shots", "4096", "--seed", "7",
                "--output", str(out_csv),
            ],
            out=io.StringIO(),
        )
        assert code == 0
        assert out_csv.read_bytes() == GOLDEN.read_bytes()
