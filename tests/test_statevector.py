"""Statevector kernel against dense kron-built references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab.errors import CapacityError, ContractViolationError, DimensionMismatchError
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import (
    StateVector,
    apply_generator_rotation,
    apply_pauli,
    apply_pauli_sum,
    basis_state,
    dense_matrix,
    exact_diagonalize,
    expectation,
    fidelity,
    pauli_expectation,
)

from conftest import (
    dense_of_sum,
    random_hermitian_sum,
    random_label,
    siam_caption_terms,
    string_matrix,
)


class TestBasisState:
    def test_01(self):
        s = basis_state("01")
        assert s.amplitudes[0b01] == 1.0
        assert np.count_nonzero(s.amplitudes) == 1

    def test_0110(self):
        s = basis_state("0110")
        assert s.amplitudes[0b0110] == 1.0

    def test_vacuum_z_expectations(self):
        s = basis_state("00")
        for q, label in enumerate(("ZI", "IZ")):
            assert pauli_expectation(PauliString.from_label(label), s) == 1.0

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            basis_state("012")


class TestApplyPauli:
    def test_x_flips(self):
        out = apply_pauli(PauliString.from_label("X"), basis_state("0"))
        assert out.amplitudes[1] == 1.0

    def test_z_signs(self):
        out = apply_pauli(PauliString.from_label("Z"), basis_state("1"))
        assert out.amplitudes[1] == -1.0

    def test_yx_on_00(self):
        out = apply_pauli(PauliString.from_label("YX"), basis_state("00"))
        assert out.amplitudes[0b11] == 1.0j

    def test_random_vs_dense(self, rng):
        for _ in range(40):
            p = PauliString.from_label(random_label(rng, 3))
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            from cmxlab.statevector import StateVector

            s = StateVector(3, amps)
            assert np.allclose(
                apply_pauli(p, s).amplitudes, string_matrix(p) @ amps, atol=1e-12
            )

    def test_norm_preserved(self, rng):
        p = PauliString.from_label("XYZ")
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        from cmxlab.statevector import StateVector

        assert abs(apply_pauli(p, StateVector(3, amps)).norm - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply_pauli(PauliString.from_label("XX"), basis_state("0"))


class TestExpectation:
    def test_siam_anchor_any_v(self):
        for v in (0.0, 0.7, 3.3):
            h = PauliSum.from_label_terms(
                [(c, l) for c, l in siam_caption_terms(8.0, 4.0, 0.0, 4.0, v)]
            )
            assert expectation(h, basis_state("0110")) == pytest.approx(-4.0, abs=1e-12)

    def test_z_on_zero(self):
        h = PauliSum.from_label_terms([(1.0, "Z")])
        assert expectation(h, basis_state("0")) == 1.0

    def test_random_vs_dense_quadratic_form(self, rng):
        from cmxlab.statevector import StateVector

        for _ in range(20):
            h = random_hermitian_sum(rng, 3, 6)
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            s = StateVector(3, amps)
            reference = float(np.real(amps.conj() @ dense_of_sum(h) @ amps))
            assert expectation(h, s) == pytest.approx(reference, abs=1e-10)

    @given(st.integers(1, 6), st.integers(0, 63), st.integers(0, 63), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_string_expectation_is_the_phased_vdot(self, n, x, z, seed):
        # the sign-flipped copy, with the Y phase applied to the vdot, gives
        # bit for bit the real part of <s|P s> over the full phased image,
        # exact zeros included
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[rng.random(1 << n) < 0.4] = 0.0
        amps[0] += 1.0
        s = StateVector(n, amps / np.linalg.norm(amps))
        p = PauliString(n, x % (1 << n), z % (1 << n))
        want = float(np.vdot(s.amplitudes, apply_pauli(p, s).amplitudes).real)
        assert pauli_expectation(p, s).hex() == want.hex()
        assert pauli_expectation(p, basis_state(format(seed % (1 << n), f"0{n}b"))) in (-1.0, 0.0, 1.0)

    def test_string_expectation_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pauli_expectation(PauliString.from_label("XX"), basis_state("0"))

    def test_non_hermitian_rejected(self):
        h = PauliSum.from_label_terms([(1.0j, "X")])
        with pytest.raises(ContractViolationError):
            expectation(h, basis_state("0"))


class TestGeneratorRotation:
    def test_theta_zero_identity(self):
        s = basis_state("0110")
        out = apply_generator_rotation(0.0, PauliString.from_label("YXXX"), s)
        assert np.allclose(out.amplitudes, s.amplitudes)

    def test_theta_pi_global_phase(self):
        s = basis_state("01")
        out = apply_generator_rotation(np.pi, PauliString.from_label("YX"), s)
        assert np.allclose(out.amplitudes, -s.amplitudes, atol=1e-12)
        assert fidelity(out, s) == pytest.approx(1.0, abs=1e-12)

    def test_yxxx_rotation_support(self):
        s = basis_state("0110")
        out = apply_generator_rotation(0.3, PauliString.from_label("YXXX"), s)
        support = {i for i, a in enumerate(out.amplitudes) if abs(a) > 1e-14}
        assert support == {0b0110, 0b1001}

    def test_matches_dense_exponential(self, rng):
        g = PauliString.from_label("YXXX")
        theta = 0.37
        s = basis_state("0110")
        u = (
            np.cos(theta) * np.eye(16)
            + 1j * np.sin(theta) * string_matrix(g)
        )
        out = apply_generator_rotation(theta, g, s)
        assert np.allclose(out.amplitudes, u @ s.amplitudes, atol=1e-12)

    @given(st.floats(-3.2, 3.2), st.floats(-3.2, 3.2))
    @settings(max_examples=40)
    def test_composition(self, t1, t2):
        g = PauliString.from_label("XY")
        s = basis_state("01")
        two_step = apply_generator_rotation(t2, g, apply_generator_rotation(t1, g, s))
        one_step = apply_generator_rotation(t1 + t2, g, s)
        assert np.allclose(two_step.amplitudes, one_step.amplitudes, atol=1e-12)
        assert abs(two_step.norm - 1.0) < 1e-12


class TestFidelity:
    def test_self(self):
        s = basis_state("010")
        assert fidelity(s, s) == 1.0

    def test_orthogonal(self):
        assert fidelity(basis_state("01"), basis_state("10")) == 0.0

    def test_siam_ground_overlap(self):
        h = PauliSum.from_label_terms(siam_caption_terms(8.0, 4.0, 0.0, 4.0, 1.0))
        ground = exact_diagonalize(h).ground_vector
        value = fidelity(basis_state("0110"), ground)
        assert 0.0 < value < 1.0

    def test_unnormalized_rejected(self):
        from cmxlab.statevector import StateVector

        bad = StateVector(1, np.array([2.0, 0.0]))
        with pytest.raises(ContractViolationError):
            fidelity(bad, basis_state("0"))


class TestExactDiagonalize:
    def test_single_z(self):
        h = PauliSum.from_label_terms([(1.0, "Z")])
        result = exact_diagonalize(h)
        assert np.allclose(result.eigenvalues, [-1.0, 1.0])

    def test_siam_ground(self):
        h = PauliSum.from_label_terms(siam_caption_terms(8.0, 4.0, 0.0, 4.0, 1.0))
        assert exact_diagonalize(h).ground_energy == pytest.approx(
            -2.0 - 2.0 * np.sqrt(2.0), abs=1e-10
        )

    def test_siam_v_zero(self):
        h = PauliSum.from_label_terms(siam_caption_terms(8.0, 4.0, 0.0, 4.0, 0.0))
        assert exact_diagonalize(h).ground_energy == pytest.approx(-4.0, abs=1e-12)

    def test_residuals(self, rng):
        h = random_hermitian_sum(rng, 3, 6)
        dense = dense_of_sum(h)
        result = exact_diagonalize(h)
        eigenvalues, vectors = np.linalg.eigh(dense)
        for k in range(8):
            residual = np.linalg.norm(dense @ vectors[:, k] - eigenvalues[k] * vectors[:, k])
            assert residual < 1e-9
        assert np.allclose(result.eigenvalues, eigenvalues, atol=1e-9)
        ground_residual = np.linalg.norm(
            dense @ result.ground_vector.amplitudes
            - result.ground_energy * result.ground_vector.amplitudes
        )
        assert ground_residual < 1e-9

    def test_capacity_guard(self):
        h = PauliSum.from_label_terms([(1.0, "Z" * 15)])
        with pytest.raises(CapacityError):
            exact_diagonalize(h)

    def test_spectrum_invariant_under_rotation_conjugation(self, rng):
        h = random_hermitian_sum(rng, 3, 6)
        dense = dense_of_sum(h)
        g = string_matrix(PauliString.from_label(random_label(rng, 3) or "X"))
        theta = 0.81
        u = np.cos(theta) * np.eye(8) + 1j * np.sin(theta) * g
        conjugated = u @ dense @ u.conj().T
        assert np.allclose(
            np.linalg.eigvalsh(conjugated), np.linalg.eigvalsh(dense), atol=1e-9
        )


@st.composite
def complex_sums(draw):
    """A 1-6 qubit sum of 1-12 terms over all four letters, with complex
    coefficients."""
    n = draw(st.integers(1, 6))
    label = st.text("IXYZ", min_size=n, max_size=n)
    part = st.floats(-2.0, 2.0, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(part, part, label), min_size=1, max_size=12))
    return PauliSum.from_label_terms([(complex(re, im), lb) for re, im, lb in terms], n_qubits=n)


class TestDenseMatrix:
    def test_matches_kron_oracle(self, rng):
        for _ in range(15):
            h = random_hermitian_sum(rng, 3, 5)
            assert np.allclose(dense_matrix(h), dense_of_sum(h), atol=1e-12)

    def test_string_matrix(self, rng):
        # a single string with coefficient -i, the product phase i**3
        p = PauliString.from_label("XZY")
        assert np.allclose(dense_matrix(PauliSum(3, [(p, 1j**3)])), string_matrix(p, 3), atol=1e-12)

    def test_apply_sum_matches_dense(self, rng):
        from cmxlab.statevector import StateVector

        h = random_hermitian_sum(rng, 3, 6)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = apply_pauli_sum(h, StateVector(3, amps))
        assert np.allclose(out.amplitudes, dense_of_sum(h) @ amps, atol=1e-11)

    @given(complex_sums(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_drawn_sums_match_kron_oracle(self, h, seed):
        # both routes read the sum's x, z and coeff arrays
        assert np.abs(dense_matrix(h) - dense_of_sum(h)).max() <= 1e-12
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << h.n_qubits) + 1j * rng.normal(size=1 << h.n_qubits)
        amps /= np.linalg.norm(amps)
        out = apply_pauli_sum(h, StateVector(h.n_qubits, amps))
        assert np.abs(out.amplitudes - dense_of_sum(h) @ amps).max() <= 1e-12
