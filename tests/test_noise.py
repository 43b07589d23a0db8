"""Shot-noise emulation: sampling statistics, mitigation, determinism."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab.cmx import cmx_cioslowski
from cmxlab.errors import ContractViolationError
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.models import H2Coefficients, SiamParams, h2_bk_hamiltonian, siam_hamiltonian
from cmxlab.moments import raw_moments_pauli
from cmxlab.noise import (
    EXPECTATION_LIMIT,
    NoiseModel,
    damping_factor,
    hadamard_test_estimate,
    noisy_moments,
)
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import _NORM_TOL, StateVector, basis_state, pauli_expectation

from conftest import record_bytes, record_strings, sum_and_trial


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

    def test_shots_are_bounded_by_the_binomial_draw(self):
        # np.int64's maximum is the largest count Generator.binomial takes
        est = hadamard_test_estimate(0.5, NoiseModel(shots=2**63 - 1))
        assert est.shots_used == 2**63 - 1
        for shots in (2**63, 10**20):
            with pytest.raises(ValueError, match=r"^shots must lie in \[1, 9223372036854775807\]"):
                NoiseModel(shots=shots)

    def test_readout_invertibility(self):
        # mitigation inverts the readout channel only when its determinant
        # p00 + p11 - 1 exceeds 1e-12
        for p00, p11, applied in ((0.9, 0.9, True), (0.5, 0.5, False), (0.5, 0.5 + 5e-13, False)):
            est = hadamard_test_estimate(0.5, NoiseModel(p00=p00, p11=p11))
            assert est.mitigation_applied is applied


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

    def test_norm_tolerance_is_the_limit(self):
        # the value of a string on a trial at the edge of the norm check is
        # sampled as +-1; anything past the limit is refused
        nm = NoiseModel(p00=0.97, p11=0.96, shots=512, seed=3)
        edge = (1.0 + _NORM_TOL) ** 2
        assert edge <= EXPECTATION_LIMIT
        for sign in (1.0, -1.0):
            at_edge = hadamard_test_estimate(np.array([sign * edge, 0.3]), nm)
            at_one = hadamard_test_estimate(np.array([sign, 0.3]), nm)
            assert at_edge.raw_estimate.tolist() == at_one.raw_estimate.tolist()
            with pytest.raises(ContractViolationError, match=r"\|x\| <= 1"):
                hadamard_test_estimate(sign * np.nextafter(EXPECTATION_LIMIT, 2.0), nm)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ContractViolationError):
            hadamard_test_estimate(bad, NoiseModel(seed=1))
        with pytest.raises(ContractViolationError):
            hadamard_test_estimate(np.array([0.2, bad]), NoiseModel(seed=1))

    @pytest.mark.parametrize("depth_proxy", [(-1, 1), (0, -2), (1.5, 1), (1, 0.5), (1,), (1, 1, 1)])
    def test_depth_proxy_must_be_two_non_negative_ints(self, depth_proxy):
        nm = NoiseModel(p1=0.1, p2=0.2, seed=1)
        with pytest.raises(ValueError, match="depth_proxy"):
            damping_factor(nm, depth_proxy)
        with pytest.raises(ValueError, match="depth_proxy"):
            hadamard_test_estimate(0.5, nm, depth_proxy=depth_proxy)

    @given(
        x=st.floats(-1.0, 1.0),
        p00=st.floats(0.0, 1.0),
        p11=st.floats(0.0, 1.0),
        p1=st.floats(0.0, 1.0),
        p2=st.floats(0.0, 1.0),
        shots=st.integers(1, 10**6),
        seed=st.integers(0, 2**32),
        depth_proxy=st.tuples(st.integers(0, 6), st.integers(0, 3)),
    )
    @settings(max_examples=300, deadline=None)
    def test_scalar_is_element_zero_of_the_array_call(
        self, x, p00, p11, p1, p2, shots, seed, depth_proxy
    ):
        nm = NoiseModel(p00=p00, p11=p11, p1=p1, p2=p2, shots=shots, seed=seed)
        one = hadamard_test_estimate(x, nm, depth_proxy)
        batch = hadamard_test_estimate(np.array([x]), nm, depth_proxy)
        fields = ("raw_estimate", "mitigated_estimate", "standard_error")
        assert all(type(getattr(one, f)) is float for f in fields)
        assert [getattr(one, f).hex() for f in fields] == [
            float(getattr(batch, f)[0]).hex() for f in fields
        ]
        assert (one.shots_used, one.mitigation_applied) == (
            batch.shots_used, batch.mitigation_applied
        )

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


def hexes(estimate):
    return [v.hex() for v in (estimate.raw_estimate, estimate.mitigated_estimate,
                              estimate.standard_error)]


class TestSampledStrings:
    @given(sum_and_trial(4), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_record_reads_its_arrays(self, problem, order, seed):
        h, state = problem
        n = h.n_qubits
        nm = NoiseModel(p00=0.97, p11=0.96, p1=0.001, p2=0.01, shots=512, seed=seed)
        _, sampled = noisy_moments(h, state, order, nm)
        batch = sampled.batch
        keys = list(zip(sampled.x.tolist(), sampled.z.tolist()))
        assert keys == sorted(set(keys)) and (0, 0) not in keys
        assert len(sampled) == len(keys) == len(sampled.true) == len(batch.raw_estimate)
        strings = record_strings(sampled)
        columns = zip(batch.raw_estimate.tolist(), batch.mitigated_estimate.tolist(),
                      batch.standard_error.tolist(), sampled.true.tolist())
        for p, (raw, mitigated, error, true) in zip(strings, columns):
            est = sampled[p]
            assert hexes(est) == [raw.hex(), mitigated.hex(), error.hex()]
            assert (est.shots_used, est.mitigation_applied) == (
                batch.shots_used, batch.mitigation_applied)
            assert true.hex() == pauli_expectation(p.x_mask, p.z_mask, state).hex()
            with pytest.raises(KeyError):
                sampled[PauliString(n + 1, p.x_mask, p.z_mask)]
        assert [hexes(e) for e in sampled.values()] == [hexes(sampled[p]) for p in strings]
        measured = set(keys)
        unmeasured = [PauliString(n, x, z) for x in range(1 << n) for z in range(1 << n)
                      if (x, z) not in measured]
        assert PauliString.identity(n) in unmeasured
        for p in unmeasured + ["XI", (1, 0)]:
            with pytest.raises(KeyError):
                sampled[p]
        # the record is not iterable, so membership is not a lookup either
        with pytest.raises(TypeError):
            iter(sampled)
        for p in strings[:1] + [PauliString.identity(n)]:
            with pytest.raises(TypeError):
                p in sampled

    @pytest.mark.parametrize("basis", [True, False])
    def test_records_are_read_only(self, basis):
        h = siam()
        if basis:
            state = basis_state("0110")
        else:
            amplitudes = np.linspace(1.0, 2.0, 16) * np.exp(1j * np.arange(16))
            state = StateVector(4, amplitudes / np.linalg.norm(amplitudes))
        _, cache = raw_moments_pauli(h, state, 3)
        _, sampled = noisy_moments(h, state, 3, NoiseModel(p00=0.97, p11=0.96, shots=512))
        b = sampled.batch
        arrays = (cache.x, cache.z, cache.values, sampled.x, sampled.z, sampled.true,
                  b.raw_estimate, b.mitigated_estimate, b.standard_error)
        assert len(cache) > 0 and len(sampled) > 0
        for array in arrays:
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0] = 0


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
        labels = {p.label for p in record_strings(estimates)}
        assert "ZZII" in labels or "ZIZI" in labels
        # every estimate is for a distinct phaseless string
        assert len(labels) == len(estimates)

    def test_perfect_model_monte_carlo_consistency(self):
        # noiseless sampling should scatter the second-order energy around
        # the exact value within its own spread
        h = siam(1.0)
        state = basis_state("0110")
        exact_table = raw_moments_pauli(h, state, 3)[0]
        exact = cmx_cioslowski(exact_table.connected, 2).energy
        energies = []
        for seed in range(50):
            nm = NoiseModel(shots=10**6, seed=seed)
            table, _ = noisy_moments(h, state, 3, nm)
            energies.append(cmx_cioslowski(table.connected, 2).energy)
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
            raw_moments_pauli(h, state, 3)[0].connected, 2
        )
        assert clean.singular_flag
        nm = NoiseModel(p00=0.97, p11=0.97, shots=8192, seed=5)
        noisy_table, _ = noisy_moments(h, state, 3, nm)
        noisy = cmx_cioslowski(noisy_table.connected, 2)
        assert math.isfinite(noisy.energy)

    def test_estimates_do_not_depend_on_term_order(self):
        h = siam(1.0)
        terms = list(h.items())
        reordered = PauliSum(h.n_qubits, terms[::-1][1::2] + terms[::-1][::2])
        amplitudes = np.linspace(1.0, 2.0, 16) * np.exp(1j * np.arange(16))
        state = StateVector(4, amplitudes / np.linalg.norm(amplitudes))
        nm = NoiseModel(p00=0.97, p11=0.96, p1=0.001, p2=0.01, shots=4096, seed=29)
        _, first = noisy_moments(h, state, 3, nm, depth_proxy=(2, 1))
        _, second = noisy_moments(reordered, state, 3, nm, depth_proxy=(2, 1))
        assert list(reordered.items()) == terms
        assert len(first) > 10
        assert record_bytes(first) == record_bytes(second)

    def test_strings_of_one_table_are_unbiased_and_uncorrelated(self):
        h = PauliSum.from_label_terms([(0.5, "XY"), (0.3, "ZX")])
        amplitudes = np.array([0.6, 0.3 + 0.4j, -0.2j, 0.5])
        state = StateVector(2, amplitudes / np.linalg.norm(amplitudes))
        strings = [PauliString.from_label(label) for label in ("XY", "ZX")]
        truth = [pauli_expectation(p.x_mask, p.z_mask, state) for p in strings]
        seeds = range(400)
        samples = np.array([
            [est[p].mitigated_estimate for p in strings]
            for est in (
                noisy_moments(h, state, 1, NoiseModel(p00=0.97, p11=0.96, shots=1024, seed=s))[1]
                for s in seeds
            )
        ])
        for column, exact in zip(samples.T, truth):
            sem = float(np.std(column, ddof=1)) / math.sqrt(len(seeds))
            assert abs(float(np.mean(column)) - exact) <= 3.0 * sem
        correlation = float(np.corrcoef(samples.T)[0, 1])
        assert abs(correlation) <= 4.0 / math.sqrt(len(seeds))

    def test_raw_versus_mitigated_assembly(self):
        nm = NoiseModel(p00=0.9, p11=0.9, shots=4096, seed=17)
        mitigated, _ = noisy_moments(siam(1.0), basis_state("0110"), 2, nm)
        raw, _ = noisy_moments(siam(1.0), basis_state("0110"), 2, nm, mitigated=False)
        assert mitigated.raw != raw.raw
