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
    visible_strings,
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
            p = PauliString.from_label(label)
            assert pauli_expectation(p.x_mask, p.z_mask, s) == 1.0

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

    @given(st.integers(1, 10), st.integers(0, 1023), st.integers(0, 1023),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_string_expectation_is_the_phased_vdot(self, n, x, z, seed):
        # a dense state reads the string from its Walsh-Hadamard table, whose
        # sums run in another order than the vdot's: the real part of
        # <s|P s> over the full phased image, to a few rounding errors per
        # index bit
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        amps[rng.random(1 << n) < 0.4] = 0.0
        amps[0] += 1.0
        s = StateVector(n, amps / np.linalg.norm(amps))
        p = PauliString(n, x % (1 << n), z % (1 << n))
        want = float(np.vdot(s.amplitudes, apply_pauli(p, s).amplitudes).real)
        weight = np.vdot(s.amplitudes, s.amplitudes).real
        eps = np.finfo(float).eps
        assert abs(pauli_expectation(p.x_mask, p.z_mask, s) - want) <= 2 * (n + 1) * eps * weight
        # a phased basis state takes the O(1) path and must give the same bits
        k = seed % (1 << n)
        for phase in (1.0, -1.0, 1j, -1j, np.exp(2j * np.pi * rng.random())):
            amps = np.zeros(1 << n, dtype=complex)
            amps[k] = phase
            b = StateVector(n, amps)
            assert b.basis_index == k
            want = float(np.vdot(b.amplitudes, apply_pauli(p, b).amplitudes).real)
            assert pauli_expectation(p.x_mask, p.z_mask, b).hex() == want.hex()

    def test_string_values_do_not_depend_on_call_order(self, rng):
        # each state keeps one x-mask's table: asking in another order, or
        # alternating with another state, rebuilds tables but gives the bits
        # of ascending (x, z) order
        n = 5
        states = [
            StateVector(n, rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n))
            for _ in range(2)
        ]
        strings = [PauliString(n, x, z) for x in range(1 << n) for z in range(1 << n)]

        def bits(s, order):
            return {p: pauli_expectation(p.x_mask, p.z_mask, s).hex() for p in order}

        ascending = [bits(s, strings) for s in states]
        shuffled = list(strings)
        rng.shuffle(shuffled)
        assert [bits(s, shuffled) for s in states] == ascending
        interleaved = [{}, {}]
        for p in shuffled:
            for s, got in zip(states, interleaved):
                got[p] = pauli_expectation(p.x_mask, p.z_mask, s).hex()
        assert interleaved == ascending

    def test_string_values_are_builtin_floats(self, rng):
        # the basis branch, the dense branch on a fresh slot, and the dense
        # branch after the slot switches to another x-mask and back
        basis = basis_state("0110")
        dense = StateVector(4, rng.normal(size=16) + 1j * rng.normal(size=16))
        calls = [(basis, 0, 0b0110), (basis, 0b0011, 0), (basis, 0, 0),
                 (dense, 0b0101, 0b0011), (dense, 0b0101, 0b1000),
                 (dense, 0b1010, 0b0001), (dense, 0b0101, 0b0011), (dense, 0, 0)]
        for s, x, z in calls:
            assert type(pauli_expectation(x, z, s)) is float
        assert dense.__dict__["_walsh"][0] == 0

    @pytest.mark.parametrize("support", [[], [0, 5], [3, 4], [0, 1, 2, 3, 4, 5, 6, 7]])
    def test_basis_index_needs_exactly_one_nonzero_amplitude(self, support):
        amps = np.zeros(8, dtype=complex)
        amps[support] = 0.5
        assert StateVector(3, amps).basis_index is None

    @pytest.mark.parametrize("value", [np.inf, np.nan, complex(1.0, np.inf)])
    def test_non_finite_amplitude_is_not_a_basis_state(self, value):
        # the dense kernel's vdot then gives inf or nan for bit flips too
        amps = np.zeros(4, dtype=complex)
        amps[2] = value
        assert StateVector(2, amps).basis_index is None

    def test_string_expectation_dimension_mismatch(self):
        p = PauliString.from_label("XX")
        with pytest.raises(DimensionMismatchError):
            pauli_expectation(p.x_mask, p.z_mask, basis_state("0"))

    @pytest.mark.parametrize("dense", [False, True])
    @pytest.mark.parametrize("x, z", [(8, 0), (0, 8), (9, 15), (1 << 64, 0), (-1, 0),
                                      (0, -1), (-8, 3)])
    def test_masks_outside_the_state_are_refused(self, rng, dense, x, z):
        # a basis state answers in O(1) and a dense one reads a table, but
        # both refuse a mask past the state's qubits, or a negative one,
        # before reading anything
        amps = rng.normal(size=8) + 1j * rng.normal(size=8) if dense else np.eye(8)[5]
        s = StateVector(3, amps)
        assert (s.basis_index is None) == dense
        with pytest.raises(DimensionMismatchError, match="3 qubits"):
            pauli_expectation(x, z, s)
        assert "_walsh" not in s.__dict__

    def test_non_hermitian_rejected(self):
        # a non-Hermitian sum is refused when it is built, so no expectation
        # ever reads one
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            PauliSum.from_label_terms([(1.0j, "X")])


def masked_state(n, seed, density):
    """A unit-norm n-qubit state whose nonzero amplitudes sit on a random
    support of about the given density, of random sizes down to 1e-300."""
    rng = np.random.default_rng(seed)
    amps = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * 10.0 ** -rng.integers(
        0, 300, size=1 << n)
    amps[rng.random(1 << n) >= density] = 0.0
    amps[rng.integers(1 << n)] = 1.0
    return StateVector(n, amps / np.linalg.norm(amps))


class TestVisibleStrings:
    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_a_support_check_for_every_x_mask(self, n, seed, density):
        # a string is visible when its X part maps some nonzero amplitude
        # onto another: the support of P|s> meets the support of |s>
        s = masked_state(n, seed, density)
        support = s.amplitudes != 0
        want = [bool((support & (apply_pauli(PauliString(n, x, 0), s).amplitudes != 0)).any())
                for x in range(1 << n)]
        masks = PauliSum(n).x.dtype.type
        got = visible_strings(np.arange(1 << n, dtype=masks), s)
        assert got.dtype == bool and got.tolist() == want
        assert got[0] and (s.basis_index is None or got.sum() == 1)

    @given(st.integers(1, 8), st.integers(0, 2**32 - 1), st.floats(0.01, np.pi / 2 - 0.01))
    @settings(max_examples=100, deadline=None)
    def test_rotated_basis_trial_sees_its_generator(self, n, seed, theta):
        # exp(i theta G)|k> = cos(theta)|k> + i sin(theta) G|k> has support
        # {k, k ^ x(G)}, so it sees exactly the x-masks 0 and x(G)
        rng = np.random.default_rng(seed)
        g = PauliString.from_label(random_label(rng, n))
        base = basis_state("".join(rng.choice(["0", "1"], size=n)))
        s = apply_generator_rotation(theta, g, base)
        seen = visible_strings(np.arange(1 << n, dtype=np.uint64), s)
        assert np.flatnonzero(seen).tolist() == sorted({0, g.x_mask})
        assert (s.basis_index is None) == (g.x_mask != 0)

    def test_invisible_strings_read_exactly_zero(self, rng):
        # every string the rule calls invisible has the kernel value +0.0,
        # on a sparse and a rotated trial
        n = 4
        rotated = apply_generator_rotation(0.3, PauliString.from_label("YXZI"), basis_state("0110"))
        for s in (masked_state(n, 7, 0.3), rotated):
            seen = visible_strings(np.arange(1 << n, dtype=np.uint8), s)
            assert not seen.all()
            for x in np.flatnonzero(~seen).tolist():
                for z in range(1 << n):
                    assert pauli_expectation(x, z, s).hex() == "0x0.0p+0"


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
def real_sums(draw):
    """A 1-6 qubit sum of 1-12 terms over all four letters, with real
    coefficients and repeated labels."""
    n = draw(st.integers(1, 6))
    label = st.text("IXYZ", min_size=n, max_size=n)
    coeff = st.floats(-2.0, 2.0, allow_subnormal=False)
    terms = draw(st.lists(st.tuples(coeff, label), min_size=1, max_size=12))
    return PauliSum.from_label_terms(terms, n_qubits=n)


class TestDenseMatrix:
    def test_matches_kron_oracle(self, rng):
        for _ in range(15):
            h = random_hermitian_sum(rng, 3, 5)
            assert np.allclose(dense_matrix(h), dense_of_sum(h), atol=1e-12)

    def test_string_matrix(self, rng):
        # a single string with coefficient -1, the product phase i**2
        p = PauliString.from_label("XZY")
        assert np.allclose(dense_matrix(PauliSum(3, [(p, 1j**2)])), string_matrix(p, 2), atol=1e-12)

    def test_apply_sum_matches_dense(self, rng):
        from cmxlab.statevector import StateVector

        h = random_hermitian_sum(rng, 3, 6)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        out = apply_pauli_sum(h, StateVector(3, amps))
        assert np.allclose(out.amplitudes, dense_of_sum(h) @ amps, atol=1e-11)

    @given(real_sums(), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_drawn_sums_match_kron_oracle(self, h, seed):
        # both routes read the sum's x, z and coeff arrays
        assert np.abs(dense_matrix(h) - dense_of_sum(h)).max() <= 1e-12
        rng = np.random.default_rng(seed)
        amps = rng.normal(size=1 << h.n_qubits) + 1j * rng.normal(size=1 << h.n_qubits)
        amps /= np.linalg.norm(amps)
        out = apply_pauli_sum(h, StateVector(h.n_qubits, amps))
        assert np.abs(out.amplitudes - dense_of_sum(h) @ amps).max() <= 1e-12
