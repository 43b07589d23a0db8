"""Moment engine: Pauli route vs dense route, connected recursion, series."""

import math
import warnings
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab import moments
from cmxlab.cmx import cmx_cioslowski, cmx_knowles, singularity_report
from cmxlab.errors import ContractViolationError, InsufficientMomentsError
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.moments import (
    MomentTable,
    assemble_moments,
    hamiltonian_powers,
    hw_energy_series,
    krylov_rank,
    raw_moments_dense,
    raw_moments_pauli,
    reachable_spectrum,
)
from cmxlab.noise import NoiseModel, noisy_moments
from cmxlab.pauli import PauliString, PauliSum
from cmxlab.statevector import StateVector, apply_pauli_sum, basis_state

from conftest import (
    basis_vector,
    dense_moments,
    dense_of_sum,
    dense_reachable_spectrum,
    random_hermitian_sum,
    siam_caption_terms,
    sum_and_trial,
)


def siam_sum(v=1.0, u=8.0):
    return PauliSum.from_label_terms(siam_caption_terms(u, u / 2, 0.0, u / 2, v))


def sequential_connected(raw):
    """I_k = K_k - sum_{i=0}^{k-2} C(k-1, i) I_{i+1} K_{k-i-1}, one term at
    a time, ascending: the reference for the table's own derivation."""
    connected = []
    for k in range(1, len(raw)):
        value = raw[k]
        for i in range(k - 1):
            value -= comb(k - 1, i) * connected[i] * raw[k - i - 1]
        connected.append(value)
    return connected


# each moment route, as (H, trial, max order) -> MomentTable
ROUTES = {
    "pauli": lambda h, state, order: raw_moments_pauli(h, state, order)[0],
    "dense": raw_moments_dense,
    "noisy": lambda h, state, order: noisy_moments(
        h, state, order, NoiseModel(p00=0.97, p11=0.96, shots=512, seed=3), depth_proxy=(2, 1)
    )[0],
}


def random_state(rng, n):
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    amps /= np.linalg.norm(amps)
    return StateVector(n, amps)


class TestRawMomentsPauli:
    def test_eigenstate_powers(self):
        h = PauliSum.from_label_terms([(0.7, "Z")])
        table, _ = raw_moments_pauli(h, basis_state("0"), 5)
        assert table.raw == pytest.approx(tuple(0.7**l for l in range(6)), abs=1e-14)

    def test_siam_first_moments(self):
        table, _ = raw_moments_pauli(siam_sum(1.0), basis_state("0110"), 3)
        assert table.raw[1] == pytest.approx(-4.0, abs=1e-12)
        assert table.raw[2] == pytest.approx(18.0, abs=1e-12)
        assert table.raw[3] == pytest.approx(-80.0, abs=1e-12)

    @pytest.mark.parametrize("v", [0.3, 1.0, 2.5])
    def test_siam_second_moment_analytic(self, v):
        # K2 = 16 + 2 V^2 and K3 = -64 - 16 V^2 at half filling, U = 8
        table, _ = raw_moments_pauli(siam_sum(v), basis_state("0110"), 3)
        assert table.raw[2] == pytest.approx(16.0 + 2.0 * v * v, abs=1e-12)
        assert table.raw[3] == pytest.approx(-64.0 - 16.0 * v * v, abs=1e-12)

    def test_diagonal_product_needs_no_new_measurement(self):
        # K2 of a single-term Hamiltonian reduces to the identity string
        h = PauliSum.from_label_terms([(0.8, "XY")])
        table, cache = raw_moments_pauli(h, basis_state("00"), 2)
        assert table.raw[2] == pytest.approx(0.64, abs=1e-15)
        assert cache.misses == 1  # only K1 touched the state

    def test_cache_reuse_and_bound(self):
        h = siam_sum(1.0)
        table, cache = raw_moments_pauli(h, basis_state("0110"), 7)
        assert len(cache) <= 4**4
        assert cache.hits > 0
        state = basis_state("0110")
        from cmxlab.statevector import pauli_expectation

        rows = zip(cache.x.tolist(), cache.z.tolist(), cache.values.tolist())
        for x, z, value in rows:
            p = PauliString(4, x, z)
            assert value == pytest.approx(pauli_expectation(p, state), abs=1e-12)

    def test_precomputed_powers(self):
        h = siam_sum(1.0)
        powers = hamiltonian_powers(h, 5)
        table, _ = raw_moments_pauli(h, basis_state("0110"), 5, powers=powers)
        direct, _ = raw_moments_pauli(h, basis_state("0110"), 5)
        assert table.raw == direct.raw
        with pytest.raises(InsufficientMomentsError):
            raw_moments_pauli(h, basis_state("0110"), 7, powers=powers)

    def test_non_hermitian_rejected(self):
        h = PauliSum.from_label_terms([(1.0j, "X")])
        with pytest.raises(ContractViolationError):
            raw_moments_pauli(h, basis_state("0"), 2)


def sequential_assembly(powers, value):
    """Reference assembly: a per-term loop from 0j with a memoising dict
    cache.  Returns the complex sums, the cache and its hit count."""
    cache, hits, totals = {}, 0, []
    for power in powers:
        acc = 0.0 + 0.0j
        for p, c in power.items():
            key = (p.x_mask, p.z_mask)
            if p.is_identity:
                acc += c
                continue
            if key in cache:
                hits += 1
            else:
                cache[key] = value(*key)
            acc += c * cache[key]
        totals.append(acc)
    return totals, cache, hits


def assembly_inputs():
    """1-4 sums on 1-3 qubits over a few keys, so identity terms and strings
    repeated within and across sums are common, with complex coefficients
    and per-string values that include signed zeros."""
    floats = st.floats(-4.0, 4.0, allow_subnormal=False)
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), floats, floats)

    def build(n, raw_sums, values):
        m = (1 << n) - 1
        sums = [
            PauliSum(n, [(PauliString(n, x & m, z & m), complex(re, im)) for x, z, re, im in raw])
            for raw in raw_sums
        ]
        return sums, values

    return st.builds(
        build,
        st.integers(1, 3),
        st.lists(st.lists(term, max_size=12), min_size=1, max_size=4),
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    )


class TestAssembleMoments:
    @given(assembly_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_loop_bit_for_bit(self, inputs):
        powers, table = inputs

        def value(x, z):
            return table[4 * x + z]

        want, cache, hits = sequential_assembly(powers, value)
        calls = []
        totals = []

        def values(xs, zs):
            calls.append(list(zip(xs.tolist(), zs.tolist())))
            return np.array([value(x, z) for x, z in calls[-1]])

        def capture(total, order):
            totals.append(total)
            return total.real

        with mock.patch.object(moments, "_real_moment", side_effect=capture):
            got, terms = assemble_moments(powers, len(powers), values)
        # one provider call with every distinct string, in ascending (x, z)
        # order
        assert calls == [sorted(cache)]
        assert terms - len(cache) == hits
        assert [(v.real.hex(), v.imag.hex()) for v in totals] == [
            (v.real.hex(), v.imag.hex()) for v in want
        ]
        assert got.raw == (1.0, *(v.real for v in want))

    def test_raw_moments_counts_match_a_dict_cache(self, rng):
        h = random_hermitian_sum(rng, 4, 12)
        state = random_state(rng, 4)
        powers = hamiltonian_powers(h, 4)
        want, cache, hits = sequential_assembly(
            powers, lambda x, z: moments.pauli_expectation(PauliString(4, x, z), state)
        )
        table, got = raw_moments_pauli(h, state, 4, powers=powers)
        keys = list(zip(got.x.tolist(), got.z.tolist()))
        assert dict(zip(keys, got.values.tolist())) == cache
        assert keys == sorted(cache)
        assert (got.hits, got.misses, len(got)) == (hits, len(cache), len(cache))
        assert [k.hex() for k in table.raw[1:]] == [v.real.hex() for v in want]

    def test_provider_gets_keys_in_strictly_ascending_order(self, rng):
        h = random_hermitian_sum(rng, 5, 20)
        calls = []

        def values(xs, zs):
            calls.append(list(zip(xs.tolist(), zs.tolist())))
            return np.zeros(len(xs))

        assemble_moments(hamiltonian_powers(h, 3), 3, values)
        (keys,) = calls
        assert len(keys) > 100
        assert all(a < b for a, b in zip(keys, keys[1:]))


@st.composite
def permuted_terms(draw):
    """A 2-5 qubit term list with distinct labels, the same terms in a
    random order, and a seed."""
    n = draw(st.integers(2, 5))
    labels = draw(st.lists(
        st.text(alphabet="IXYZ", min_size=n, max_size=n), min_size=2, max_size=8, unique=True
    ))
    coeffs = draw(st.lists(
        st.floats(-1.0, 1.0, allow_subnormal=False), min_size=len(labels), max_size=len(labels)
    ))
    terms = list(zip(coeffs, labels))
    return n, terms, draw(st.permutations(terms)), draw(st.integers(0, 2**32 - 1))


class TestCanonicalTermOrder:
    @given(permuted_terms())
    @settings(max_examples=40, deadline=None)
    def test_moments_do_not_depend_on_term_order(self, inputs):
        n, terms, permuted, seed = inputs
        a = PauliSum.from_label_terms(terms, n)
        b = PauliSum.from_label_terms(permuted, n)
        state = random_state(np.random.default_rng(seed), n)
        nm = NoiseModel(p00=0.97, p11=0.96, p1=0.001, p2=0.01, shots=512, seed=seed)

        def bits(table):
            return [k.hex() for k in table.raw]

        (table_a, cache_a), (table_b, cache_b) = (raw_moments_pauli(h, state, 4) for h in (a, b))
        assert bits(table_a) == bits(table_b)
        for name in ("x", "z", "values"):
            assert getattr(cache_a, name).tobytes() == getattr(cache_b, name).tobytes()
        assert cache_a.hits == cache_b.hits
        assert bits(raw_moments_dense(a, state, 4)) == bits(raw_moments_dense(b, state, 4))
        (noisy_a, estimates_a), (noisy_b, estimates_b) = (
            noisy_moments(h, state, 4, nm) for h in (a, b)
        )
        assert bits(noisy_a) == bits(noisy_b)
        assert list(estimates_a.items()) == list(estimates_b.items())


class TestOracleEquivalence:
    def test_random_sums_match_dense_route(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 4))
            h = random_hermitian_sum(rng, n, int(rng.integers(3, 9)))
            state = random_state(rng, n)
            via_pauli, _ = raw_moments_pauli(h, state, 7)
            via_dense = raw_moments_dense(h, state, 7)
            for kp, kd in zip(via_pauli.raw, via_dense.raw):
                assert kp == pytest.approx(kd, rel=1e-10, abs=1e-10)

    def test_dense_route_matches_kron_oracle(self, rng):
        h = random_hermitian_sum(rng, 3, 6)
        state = random_state(rng, 3)
        table = raw_moments_dense(h, state, 6)
        oracle = dense_moments(dense_of_sum(h), state.amplitudes, 6)
        assert np.allclose(table.raw, oracle, atol=1e-10)

    def test_dense_route_matches_sequential_loop_bit_for_bit(self, rng):
        # reference: apply H once per order and read <Phi|v_n> as it goes
        for _ in range(40):
            n, order = int(rng.integers(1, 7)), int(rng.integers(1, 12))
            h = random_hermitian_sum(rng, n, int(rng.integers(1, 10)))
            state = random_state(rng, n)
            want, v = [1.0], state
            for _k in range(order):
                v = apply_pauli_sum(h, v)
                want.append(complex(np.vdot(state.amplitudes, v.amplitudes)).real)
            got = raw_moments_dense(h, state, order)
            assert [k.hex() for k in got.raw] == [k.hex() for k in want]

    def test_variance_nonnegative(self, rng):
        for _ in range(20):
            h = random_hermitian_sum(rng, 3, 5)
            table = raw_moments_dense(h, random_state(rng, 3), 2)
            assert table.raw[2] >= table.raw[1] ** 2 - 1e-12

    def test_hankel_psd(self, rng):
        for _ in range(20):
            h = random_hermitian_sum(rng, 3, 6)
            table = raw_moments_dense(h, random_state(rng, 3), 6)
            hankel = np.array([[table.raw[i + j] for j in range(4)] for i in range(4)])
            assert np.linalg.eigvalsh(hankel).min() > -1e-9


class TestConnectedMoments:
    def test_base_cases(self, rng):
        h = random_hermitian_sum(rng, 2, 4)
        table = raw_moments_dense(h, random_state(rng, 2), 4)
        k = table.raw
        assert table.connected[0] == pytest.approx(k[1], abs=1e-12)
        assert table.connected[1] == pytest.approx(k[2] - k[1] ** 2, abs=1e-12)

    def test_third_cumulant_expansion(self, rng):
        # I3 = K3 - 3 K1 K2 + 2 K1^3
        for _ in range(10):
            h = random_hermitian_sum(rng, 3, 5)
            table = raw_moments_dense(h, random_state(rng, 3), 3)
            k = table.raw
            expected = k[3] - 3.0 * k[1] * k[2] + 2.0 * k[1] ** 3
            assert table.connected[2] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    @settings(max_examples=200)
    def test_table_derives_the_sequential_recursion(self, tail):
        raw = (1.0, *tail)
        table = MomentTable(raw)
        assert table.max_order == len(tail)
        assert [v.hex() for v in table.connected] == [
            v.hex() for v in sequential_connected(raw)
        ]

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_route_tables_feed_every_solver(self, route):
        table = ROUTES[route](siam_sum(1.0), basis_state("0110"), 5)
        assert len(table.connected) == table.max_order == 5
        ivals = list(table.connected)
        assert cmx_cioslowski(table, 3) == cmx_cioslowski(ivals, 3)
        assert cmx_knowles(table, 3) == cmx_knowles(ivals, 3)
        assert singularity_report(table) == singularity_report(ivals)
        assert hw_energy_series(table, 0.5, 4) == pytest.approx(
            sum((-0.5) ** k / math.factorial(k) * ivals[k] for k in range(5))
        )
        for text in ("cmx-cioslowski:3", "cmx-knowles:3", "pds:3", "hw-series:4:0.5"):
            assert math.isfinite(evaluate_method(parse_method(text), table).energy)
        assert evaluate_method(parse_method("expectation"), table).energy == table.raw[1]

    def test_siam_values(self):
        table, _ = raw_moments_pauli(siam_sum(1.0), basis_state("0110"), 3)
        assert table.connected == pytest.approx((-4.0, 2.0, 8.0), abs=1e-12)

    def test_eigenstate_collapse(self):
        h = siam_sum(0.0)  # diagonal; |0110> is an eigenstate
        table = raw_moments_dense(h, basis_state("0110"), 6)
        assert table.connected[0] == pytest.approx(-4.0, abs=1e-12)
        assert max(abs(v) for v in table.connected[1:]) < 1e-9

    @given(st.floats(-2, 2))
    @settings(max_examples=50)
    def test_point_mass_moments_have_zero_cumulants(self, e):
        # moments of a point mass at E: K_l = E^l
        raw = tuple(float(e) ** l for l in range(6))
        table = MomentTable(raw)
        assert table.connected[0] == pytest.approx(e, abs=1e-9)
        assert max(abs(v) for v in table.connected[1:]) < 1e-9 * max(1.0, abs(e) ** 6)


class TestHwSeries:
    def test_tau_zero(self, rng):
        h = random_hermitian_sum(rng, 2, 4)
        table = raw_moments_dense(h, random_state(rng, 2), 5)
        for order in range(5):
            assert hw_energy_series(table, 0.0, order) == table.connected[0]

    def test_small_tau_decreases_when_i2_positive(self):
        table = raw_moments_dense(siam_sum(1.0), basis_state("0110"), 4)
        assert table.connected[1] > 0
        assert hw_energy_series(table, 1e-3, 1) < table.connected[0]

    def test_eigenstate_flat(self):
        raw = tuple((-1.3) ** l for l in range(6))
        table = MomentTable(raw)
        for tau in (0.0, 0.5, 2.0):
            for order in range(5):
                assert hw_energy_series(table, tau, order) == pytest.approx(-1.3, abs=1e-9)

    def test_order_out_of_range(self):
        table = MomentTable((1.0, 0.5, 0.3))
        with pytest.raises(InsufficientMomentsError):
            hw_energy_series(table, 0.1, 2)


class TestKrylov:
    def test_siam_rank_three(self):
        assert krylov_rank(siam_sum(1.0), basis_state("0110"), max_dim=8) == 3

    def test_reachable_spectrum_matches_dense_oracle(self):
        h = siam_sum(1.0)
        ours = reachable_spectrum(h, basis_state("0110"))
        oracle = dense_reachable_spectrum(dense_of_sum(h), basis_vector("0110"))
        assert np.allclose(ours, oracle, atol=1e-8)
        assert np.allclose(
            ours, [-2 - 2 * np.sqrt(2), -4.0, -2 + 2 * np.sqrt(2)], atol=1e-8
        )

    @given(sum_and_trial(4))
    @settings(max_examples=300, deadline=None)
    def test_rank_and_spectrum_match_dense_oracle(self, inputs):
        h, state = inputs
        ours = reachable_spectrum(h, state)
        oracle = dense_reachable_spectrum(dense_of_sum(h), state.amplitudes)
        assert krylov_rank(h, state) == len(ours) == len(oracle)
        assert krylov_rank(h, state, max_dim=8) == min(8, len(oracle))
        assert np.abs(ours - oracle).max() <= 1e-10


class TestMomentTableValidation:
    def test_k0_must_be_one(self):
        with pytest.raises(ValueError):
            MomentTable((0.5, 1.0))

    @pytest.mark.parametrize(("raw", "message"), [
        ((1.0, 2.0, math.inf), "raw moment K_2 = inf"),
        ((1.0, math.nan, 1.0), "raw moment K_1 = nan"),
        ((1.0, -math.inf), "raw moment K_1 = -inf"),
        # finite raw moments whose connected moment overflows
        ((1.0, 1e200, 1e300), "connected moment I_2 = -inf"),
    ])
    def test_non_finite_moment_names_its_order(self, raw, message):
        with pytest.raises(ContractViolationError, match=f"^{message} is not finite$"):
            MomentTable(raw)

    def test_overflowing_powers_are_rejected_without_warnings(self):
        # H^2 overflows float64; the powers and the assembly stay silent and
        # the table names the first non-finite order
        h = PauliSum.from_label_terms([(1e160, "XZ"), (1e160, "ZZ"), (1.0, "YI")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match="K_2"):
                raw_moments_pauli(h, basis_state("01"), 3)
