"""PDS solver: linear system assembly, roots, bounds, saturation."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmxlab.errors import DegenerateRootsError, InsufficientMomentsError
from cmxlab.models import H2Coefficients, h2_bk_hamiltonian
from cmxlab.moments import lanczos, raw_moments_dense, raw_moments_pauli
from cmxlab.pauli import PauliSum
from cmxlab.pds import build_pds_system, solve_pds
from cmxlab.statevector import StateVector, basis_state

from conftest import (
    basis_vector,
    coefficient_norm,
    dense_of_sum,
    dense_reachable_spectrum,
    h2_block_eigenvalues,
    random_hermitian_sum,
    siam_caption_terms,
    sum_and_trial,
)

FCI_V1 = -2.0 - 2.0 * np.sqrt(2.0)


def siam_sum(v=1.0, u=8.0):
    return PauliSum.from_label_terms(siam_caption_terms(u, u / 2, 0.0, u / 2, v))


def siam_table(v=1.0, order=7):
    return raw_moments_pauli(siam_sum(v), basis_state("0110"), order)[0]


class TestBuildSystem:
    def test_order_one(self):
        m, b = build_pds_system([1.0, -4.0], 1)
        assert m.tolist() == [[1.0]]
        assert b.tolist() == [-4.0]
        result = solve_pds([1.0, -4.0], 1)
        assert result.ground_energy == pytest.approx(-4.0, abs=1e-14)

    def test_siam_order_two(self):
        m, b = build_pds_system(siam_table(1.0), 2)
        assert m.tolist() == [[18.0, -4.0], [-4.0, 1.0]]
        assert b.tolist() == [-80.0, 18.0]

    def test_hankel_gram_psd(self, rng):
        for _ in range(10):
            h = random_hermitian_sum(rng, 3, 5)
            amps = rng.normal(size=8) + 1j * rng.normal(size=8)
            amps /= np.linalg.norm(amps)
            table = raw_moments_dense(h, StateVector(3, amps), 5)
            m, _ = build_pds_system(table, 3)
            assert np.linalg.eigvalsh(m).min() > -1e-9

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMomentsError):
            build_pds_system([1.0, -4.0, 18.0], 2)


class TestSolve:
    def test_siam_order_two_hand_system(self):
        result = solve_pds(siam_table(1.0), 2)
        assert result.coefficients == pytest.approx((1.0, 4.0, -2.0), abs=1e-12)
        assert sorted(result.real_roots_sorted) == pytest.approx(
            [-2.0 - np.sqrt(6.0), -2.0 + np.sqrt(6.0)], abs=1e-12
        )
        assert result.ground_energy == pytest.approx(-2.0 - np.sqrt(6.0), abs=1e-10)
        assert not result.used_pseudo_inverse

    def test_siam_order_three_reaches_fci(self):
        result = solve_pds(siam_table(1.0), 3)
        assert result.ground_energy == pytest.approx(FCI_V1, abs=1e-10)

    def test_coefficients_start_with_one(self):
        result = solve_pds(siam_table(1.0), 3)
        assert result.coefficients[0] == 1.0
        assert result.ground_energy == min(result.real_roots_sorted)

    def test_polynomial_residuals(self):
        for order in (2, 3, 4):
            result = solve_pds(siam_table(1.0), order)
            scale = max(1.0, max(abs(c) for c in result.coefficients))
            for root in result.roots:
                residual = abs(np.polyval(result.coefficients, root))
                assert residual < 1e-8 * scale

    def test_eigenstate_trial_recovers_eigenvalue(self):
        # (|0110> - |1001>)/sqrt(2) is an eigenstate with eigenvalue -4
        amps = (basis_vector("0110") - basis_vector("1001")) / np.sqrt(2.0)
        state = StateVector(4, amps)
        table = raw_moments_dense(siam_sum(1.0), state, 7)
        for order in (1, 2, 3):
            result = solve_pds(table, order)
            assert result.ground_energy == pytest.approx(-4.0, abs=1e-8)
            assert any(abs(r - (-4.0)) < 1e-8 for r in result.real_roots_sorted)

    def test_basis_eigenstate_pads_at_mean(self):
        # |01> is an eigenstate of the diagonal model; rounding leaves
        # I_2 = -1.1e-16, which must not be solved as a spread
        h = h2_bk_hamiltonian(H2Coefficients(0.1, 0.4, -0.3, 0.2, 0.0, 0.0))
        table = raw_moments_pauli(h, basis_state("01"), 5)[0]
        mean = table.raw[1]
        first = solve_pds(table, 1)
        assert first.real_roots_sorted == (mean,)
        assert not first.used_pseudo_inverse
        for order in (2, 3):
            result = solve_pds(table, order)
            assert result.real_roots_sorted == (mean,) * order
            assert result.used_pseudo_inverse
            assert result.condition_number == np.inf

    def test_degenerate_all_complex(self):
        # a synthetic non-Gram sequence whose polynomial is x^2 + 1
        with pytest.raises(DegenerateRootsError) as err:
            solve_pds([1.0, 0.0, -1.0, 0.0], 2)
        assert "condition_number" in err.value.diagnostics

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMomentsError):
            solve_pds([1.0, -4.0], 2)


class TestBounds:
    def test_upper_bound_property_random(self, rng):
        checked = 0
        for _ in range(30):
            n = int(rng.integers(2, 4))
            h = random_hermitian_sum(rng, n, 6)
            bits = "".join(str(b) for b in rng.integers(0, 2, size=n))
            table = raw_moments_dense(h, basis_state(bits), 7)
            exact_ground = float(np.linalg.eigvalsh(dense_of_sum(h))[0])
            for order in (1, 2, 3):
                result = solve_pds(table, order)
                if result.used_pseudo_inverse:
                    continue  # saturated chain: covered by the saturation tests
                checked += 1
                assert result.ground_energy >= exact_ground - 1e-9
        assert checked > 50

    def test_excited_bounds_order_three(self):
        h = siam_sum(1.0)
        result = solve_pds(siam_table(1.0), 3)
        reachable = dense_reachable_spectrum(dense_of_sum(h), basis_vector("0110"))
        bounds = result.real_roots_sorted
        assert len(bounds) == 3
        for bound, exact in zip(bounds, reachable):
            assert bound >= exact - 1e-9

    def test_order_one_is_mean_energy(self):
        result = solve_pds(siam_table(1.0), 1)
        assert result.real_roots_sorted == pytest.approx((-4.0,), abs=1e-12)
        assert result.ground_energy >= FCI_V1

    def test_monotone_improvement_on_sweep(self):
        for v in (0.1, 0.5, 1.0, 2.0, 3.0, 6.0, 10.0):
            table = siam_table(v)
            previous = np.inf
            for order in (1, 2, 3):
                energy = solve_pds(table, order).ground_energy
                assert energy <= previous + 1e-9
                previous = energy

    def test_two_qubit_block_exactness(self, rng):
        for _ in range(10):
            g = rng.uniform(-1.0, 1.0, size=6)
            if abs(g[4] + g[5]) < 0.1:
                continue
            h = h2_bk_hamiltonian(H2Coefficients(*g))
            table = raw_moments_pauli(h, basis_state("01"), 3)[0]
            result = solve_pds(table, 2)
            low, high = h2_block_eigenvalues(g)
            assert result.real_roots_sorted == pytest.approx((low, high), abs=1e-12)


class TestSaturation:
    def test_order_three_saturates_reachable_spectrum(self):
        result = solve_pds(siam_table(1.0), 3)
        reachable = dense_reachable_spectrum(dense_of_sum(siam_sum(1.0)), basis_vector("0110"))
        assert np.allclose(result.real_roots_sorted, reachable, atol=1e-8)

    def test_order_four_contains_reachable_spectrum(self):
        # one past saturation: minimal-norm solve pads with a benign root
        result = solve_pds(siam_table(1.0), 4)
        assert result.used_pseudo_inverse
        reachable = dense_reachable_spectrum(dense_of_sum(siam_sum(1.0)), basis_vector("0110"))
        for exact in reachable:
            assert min(abs(r - exact) for r in result.real_roots_sorted) < 1e-8
        assert result.ground_energy == pytest.approx(FCI_V1, abs=1e-8)

    def test_shift_covariance(self):
        # H -> scale * (H + 1.5); every bound is the scale-1 bound in the
        # units of the scaled H
        h = siam_sum(1.0)
        base_table = raw_moments_dense(h, basis_state("0110"), 7)
        for scale in (1.0, 250.0, 1e-3):
            shifted = h.scaled(scale) + PauliSum.from_label_terms([(1.5 * scale, "IIII")])
            shift_table = raw_moments_dense(shifted, basis_state("0110"), 7)
            for order in (1, 2, 3, 4):
                base = solve_pds(base_table, order)
                moved = solve_pds(shift_table, order)
                assert moved.used_pseudo_inverse == base.used_pseudo_inverse
                assert len(moved.real_roots_sorted) == len(base.real_roots_sorted)
                for rb, rm in zip(base.real_roots_sorted, moved.real_roots_sorted):
                    assert rm - scale * rb == pytest.approx(1.5 * scale, abs=1e-9 * scale)

    def test_pds2_deviation_documented(self):
        # the trial Krylov space is three-dimensional, so second order is
        # not exact; the deviation is real and saturates only at order 3
        dev2 = abs(solve_pds(siam_table(1.0), 2).ground_energy - FCI_V1)
        dev3 = abs(solve_pds(siam_table(1.0), 3).ground_energy - FCI_V1)
        assert dev2 == pytest.approx(0.37893738196301197, abs=1e-9)
        assert dev3 < 1e-8


class TestLanczosIdentity:
    @given(sum_and_trial(5), st.integers(1, 5))
    @settings(max_examples=200, deadline=None)
    def test_roots_are_ritz_values(self, inputs, order):
        # PDS(n) roots are the Ritz values of H in the n-dimensional Krylov
        # space; a chain that saturates below n has fewer Ritz values
        h, state = inputs
        alpha, beta = lanczos(h, state, order)
        assume(len(alpha) == order)
        result = solve_pds(raw_moments_dense(h, state, 2 * order - 1), order)
        assume(not result.used_pseudo_inverse and not result.complex_roots)
        ritz = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        roots = np.sort([r.real for r in result.roots])
        assert np.abs(roots - ritz).max() <= 1e-6 * max(1.0, coefficient_norm(h))
