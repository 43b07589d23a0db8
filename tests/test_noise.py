"""Shot-noise emulation: sampling statistics, mitigation, determinism."""

import math

import numpy as np
import pytest

from cmxlab.cmx import cmx_cioslowski
from cmxlab.errors import ContractViolationError
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.models import H2Coefficients, SiamParams, h2_bk_hamiltonian, siam_hamiltonian
from cmxlab.moments import raw_moments_pauli
from cmxlab.noise import NoiseModel, hadamard_test_estimate, noisy_moments
from cmxlab.pauli import PauliSum
from cmxlab.statevector import basis_state


def siam(v=1.0):
    return siam_hamiltonian(SiamParams.half_filling(8.0, v))


class TestNoiseModel:
    def test_probability_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(p00=1.2)
        with pytest.raises(ValueError):
            NoiseModel(shots=0)
        with pytest.raises(ValueError):
            NoiseModel(seed=-1)

    def test_readout_invertibility(self):
        assert NoiseModel(p00=0.9, p11=0.9).readout_invertible
        assert not NoiseModel(p00=0.5, p11=0.5).readout_invertible


class TestHadamardTestEstimate:
    def test_noiseless_concentration(self):
        nm = NoiseModel(shots=10**6, seed=11)
        est = hadamard_test_estimate(0.3, nm)
        assert abs(est.raw_estimate - 0.3) <= 3.0 * est.standard_error
        assert est.mitigated_estimate == est.raw_estimate
        assert est.mitigation_applied

    def test_zero_expectation_readout_bias(self):
        nm = NoiseModel(p00=0.9, p11=0.95, shots=10**6, seed=5)
        est = hadamard_test_estimate(0.0, nm)
        bias = nm.p00 - nm.p11
        sigma = math.sqrt(1.0 / nm.shots)
        assert abs(est.raw_estimate - bias) <= 4.0 * sigma
        mitigated_sigma = sigma / (nm.p00 + nm.p11 - 1.0)
        assert abs(est.mitigated_estimate) <= 4.0 * mitigated_sigma

    def test_full_depolarization_flags_mitigation(self):
        nm = NoiseModel(p2=1.0, shots=10**5, seed=2)
        est = hadamard_test_estimate(0.8, nm, depth_proxy=(0, 1))
        assert not est.mitigation_applied
        # the damped signal is zero; only readout bias remains (here none)
        assert abs(est.raw_estimate) < 0.02

    def test_singular_readout_disables_mitigation(self):
        nm = NoiseModel(p00=0.5, p11=0.5, shots=1000, seed=1)
        est = hadamard_test_estimate(0.4, nm)
        assert not est.mitigation_applied
        assert est.mitigated_estimate == est.raw_estimate

    def test_damping_applied(self):
        nm = NoiseModel(p1=0.1, p2=0.2, shots=10**6, seed=9)
        est = hadamard_test_estimate(1.0, nm, depth_proxy=(2, 1))
        damping = 0.9**2 * 0.8
        assert abs(est.raw_estimate - damping) <= 4.0 / math.sqrt(nm.shots)
        assert est.mitigated_estimate == pytest.approx(
            est.raw_estimate / damping, abs=1e-12
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            hadamard_test_estimate(1.5, NoiseModel())

    def test_standard_error_formula(self):
        nm = NoiseModel(shots=4096, seed=3)
        est = hadamard_test_estimate(0.6, nm)
        expected = math.sqrt((1.0 - est.raw_estimate**2) / nm.shots)
        assert est.standard_error == pytest.approx(expected, rel=1e-12)


class TestStatistics:
    def test_error_scales_with_shots(self):
        x = 0.4
        for shots in (10**2, 10**4, 10**6):
            raws = [
                hadamard_test_estimate(x, NoiseModel(shots=shots, seed=s)).raw_estimate
                for s in range(200)
            ]
            spread = float(np.std(raws))
            assert 0.5 / math.sqrt(shots) <= spread <= 2.0 / math.sqrt(shots)

    def test_mitigation_unbiased(self):
        x = 0.37
        nm_args = dict(p00=0.97, p11=0.97, shots=8192)
        values = [
            hadamard_test_estimate(x, NoiseModel(seed=s, **nm_args)).mitigated_estimate
            for s in range(200)
        ]
        mean = float(np.mean(values))
        sem = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert abs(mean - x) <= 3.0 * sem


class TestNoisyMoments:
    def test_bit_reproducible(self):
        nm = NoiseModel(p00=0.98, p11=0.97, shots=2048, seed=123)
        first, _ = noisy_moments(siam(1.0), basis_state("0110"), 3, nm)
        second, _ = noisy_moments(siam(1.0), basis_state("0110"), 3, nm)
        assert first.raw == second.raw
        third, _ = noisy_moments(
            siam(1.0), basis_state("0110"), 3, NoiseModel(p00=0.98, p11=0.97, shots=2048, seed=124)
        )
        assert third.raw != first.raw

    def test_identity_is_never_sampled(self):
        h = PauliSum.from_label_terms([(0.8, "XY")])
        nm = NoiseModel(shots=16, seed=0)  # tiny budget would scatter K2 otherwise
        table, estimates = noisy_moments(h, basis_state("00"), 2, nm)
        assert table.raw[2] == pytest.approx(0.64, abs=1e-15)
        assert len(estimates) == 1  # only the XY string itself

    def test_estimates_reused_across_orders(self):
        nm = NoiseModel(shots=512, seed=7)
        _, estimates = noisy_moments(siam(1.0), basis_state("0110"), 3, nm)
        labels = {p.label for p in estimates}
        assert "ZZII" in labels or "ZIZI" in labels
        # every estimate is for a distinct phaseless string
        assert len(labels) == len(estimates)

    def test_perfect_model_monte_carlo_consistency(self):
        # noiseless sampling should scatter the second-order energy around
        # the exact value within its own spread
        h = siam(1.0)
        state = basis_state("0110")
        exact_table = raw_moments_pauli(h, state, 3)[0]
        exact = cmx_cioslowski(exact_table, 2).energy
        energies = []
        for seed in range(50):
            nm = NoiseModel(shots=10**6, seed=seed)
            table, _ = noisy_moments(h, state, 3, nm)
            energies.append(cmx_cioslowski(table, 2).energy)
        mean = float(np.mean(energies))
        spread = float(np.std(energies, ddof=1))
        assert abs(mean - exact) <= 5.0 * spread / math.sqrt(len(energies))

    def test_readout_only_pds2_finite_across_sweep(self):
        nm = NoiseModel(p00=0.97, p11=0.97, shots=8192, seed=21)
        spec = parse_method("pds:2")
        for v in (0.1, 1.0, 3.0, 6.0, 10.0):
            table, _ = noisy_moments(siam(v), basis_state("0110"), 3, nm)
            value = evaluate_method(spec, table)
            assert math.isfinite(value.energy)

    def test_noise_regularizes_singular_second_order(self):
        # equal block diagonal entries zero the third cumulant exactly, so
        # the noiseless second-order expansion is flagged; sampling noise
        # breaks the degeneracy and keeps the energy finite
        c = H2Coefficients(0.0, 0.3, 0.3, -0.1, 0.25, 0.25)
        h = h2_bk_hamiltonian(c)
        state = basis_state("01")
        clean = cmx_cioslowski(
            raw_moments_pauli(h, state, 3)[0], 2
        )
        assert clean.singular_flag
        nm = NoiseModel(p00=0.97, p11=0.97, shots=8192, seed=5)
        noisy_table, _ = noisy_moments(h, state, 3, nm)
        noisy = cmx_cioslowski(noisy_table, 2)
        assert math.isfinite(noisy.energy)

    def test_raw_versus_mitigated_assembly(self):
        nm = NoiseModel(p00=0.9, p11=0.9, shots=4096, seed=17)
        mitigated, _ = noisy_moments(siam(1.0), basis_state("0110"), 2, nm)
        raw, _ = noisy_moments(siam(1.0), basis_state("0110"), 2, nm, mitigated=False)
        assert mitigated.raw != raw.raw
