"""Moment engine: Pauli route vs dense route, connected recursion, series."""

import functools
import math
import warnings
from fractions import Fraction
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab import moments, statevector
from cmxlab.cmx import cmx_cioslowski, cmx_knowles
from cmxlab.errors import (
    ContractViolationError,
    DimensionMismatchError,
    InsufficientMomentsError,
)
from cmxlab.methods import evaluate_method, parse_method
from cmxlab.moments import (
    MomentPlan,
    MomentTable,
    hamiltonian_powers,
    hw_energy_rows,
    krylov_rank,
    lanczos,
    raw_moments_dense,
    raw_moments_pauli,
)
from cmxlab.noise import NoiseModel, hadamard_test_estimate, noisy_moments
from cmxlab.pauli import DEFAULT_PRUNE_THRESHOLD, PauliString, PauliSum
from cmxlab.pds import solve_pds
from cmxlab.statevector import (
    DENSE_QUBIT_LIMIT,
    StateVector,
    apply_generator_rotation,
    apply_pauli_sum,
    basis_state,
    pauli_expectation,
)

from conftest import (
    basis_vector,
    coefficient_norm,
    dense_moments,
    dense_of_sum,
    dense_of_terms,
    dense_reachable_spectrum,
    exact_moments,
    random_hermitian_sum,
    random_label,
    record_bytes,
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


def random_trial(rng, n):
    """A random n-qubit basis state, rotated basis state or dense state."""
    state = basis_state("".join(rng.choice(["0", "1"], size=n)))
    kind = rng.integers(3)
    if kind == 1:
        generator = PauliString.from_label(random_label(rng, n))
        return apply_generator_rotation(rng.uniform(-np.pi, np.pi), generator, state)
    return random_state(rng, n) if kind == 2 else state


def sees(state):
    """The XORs of every pair of nonzero amplitude indices: the X parts,
    in amplitude-index bits, of the strings the state can see."""
    support = np.flatnonzero(state.amplitudes).tolist()
    return {a ^ b for a in support for b in support}


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
        # K1's XY flips both bits of |00>, a known zero: no circuit at all
        assert (cache.misses, cache.unseen) == (0, 1)

    def test_cache_reuse_and_bound(self):
        h = siam_sum(1.0)
        table, cache = raw_moments_pauli(h, basis_state("0110"), 7)
        assert cache.misses <= 4**4
        assert cache.hits > 0
        state = basis_state("0110")
        from cmxlab.statevector import pauli_expectation

        rows = zip(cache.x.tolist(), cache.z.tolist(), cache.values.tolist())
        for x, z, value in rows:
            assert value == pytest.approx(pauli_expectation(x, z, state), abs=1e-12)

    def test_hits_count_the_terms_of_the_plans_own_powers(self):
        # a plan built for the state forms H^7 only over the x-masks the
        # state sees, so the same table reports fewer reused terms
        h, state = siam_sum(1.0), basis_state("0110")
        fresh, fresh_cache = raw_moments_pauli(h, state, 7)
        planned, plan_cache = raw_moments_pauli(h, state, 7, plan=MomentPlan(h, 7, [state]))
        for got, want in ((planned.raw, fresh.raw), (planned.connected, fresh.connected)):
            assert [k.hex() for k in got] == [k.hex() for k in want]
        assert [(c.misses, c.unseen, c.hits) for c in (fresh_cache, plan_cache)] == [
            (7, 16, 105), (7, 16, 89)]

    def test_precomputed_plan(self):
        h = siam_sum(1.0)
        plan = MomentPlan(h, 5)
        table, _ = raw_moments_pauli(h, basis_state("0110"), 5, plan=plan)
        direct, _ = raw_moments_pauli(h, basis_state("0110"), 5)
        assert table.raw == direct.raw
        # a plan of another order is refused before any string is measured
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            for order in (3, 7):
                with pytest.raises(ValueError, match=f"cannot serve .* at order {order}"):
                    raw_moments_pauli(h, basis_state("0110"), order, plan=plan)
        assert kernel.call_count == 0

    def test_a_plan_of_another_hamiltonian_is_refused(self):
        # the SIAM plan at U = 8 would give the U = 2 Hamiltonian U = 8's
        # moments 1, -4, 18, -80 in place of its own 1, -1, 3, -5
        h, state = siam_sum(1.0, u=2.0), basis_state("0110")
        plan = MomentPlan(siam_sum(1.0), 3)
        wrong = plan.assemble(moments.string_expectations(plan.x, plan.z, state))
        assert wrong.raw == pytest.approx((1.0, -4.0, 18.0, -80.0), abs=1e-12)
        assert ROUTES["pauli"](h, state, 3).raw == pytest.approx((1.0, -1.0, 3.0, -5.0), abs=1e-12)
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            with pytest.raises(ValueError, match="cannot serve this H and state at order 3"):
                raw_moments_pauli(h, state, 3, plan=plan)
        assert kernel.call_count == 0

    def test_a_plan_for_a_basis_state_refuses_a_dense_one(self, rng):
        # a plan for |0110> forms H^3 only over the x-mask 0 it sees; a
        # dense state sees the other x-masks too, whose terms of K_3 the
        # plan dropped
        h, state = siam_sum(1.0), random_state(rng, 4)
        plan = MomentPlan(h, 3, [basis_state("0110")])
        want, _ = raw_moments_pauli(h, state, 3)
        partial = plan.assemble(moments.string_expectations(plan.x, plan.z, state))
        assert partial.raw[:3] == want.raw[:3]
        assert abs(partial.raw[3] - want.raw[3]) > 0.1
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            with pytest.raises(ValueError, match="cannot serve this H and state at order 3"):
                raw_moments_pauli(h, state, 3, plan=plan)
        assert kernel.call_count == 0

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("bits", ["01101", "011"])
    def test_operator_and_state_sizes_must_match(self, route, bits):
        # every route refuses a 4-qubit H on a larger or smaller trial at its
        # entry: masks that fit a larger state would otherwise read only its
        # first four qubits and return moments
        match = f"operator acts on 4 qubits, state on {len(bits)}"
        with pytest.raises(DimensionMismatchError, match=match):
            ROUTES[route](siam_sum(1.0), basis_state(bits), 4)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    @pytest.mark.parametrize("scale", [2.0, 0.0, 1.0 + 1e-6, 1e160, math.nan])
    def test_trial_must_have_unit_norm(self, route, scale):
        # every route reads K_0 = 1, so each refuses an unnormalised trial at
        # its entry, without warnings; on 2|0110> the Pauli route would
        # weigh the identity term 1 and every other string 4 (K_1 = -10),
        # the dense route every term 4 (K_1 = -16)
        trial = StateVector(4, scale * basis_state("0110").amplitudes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractViolationError, match=r"^trial norm .* is not 1$"):
                ROUTES[route](siam_sum(1.0), trial, 4)

    @pytest.mark.parametrize("route", sorted(ROUTES))
    def test_trial_norm_within_tolerance_is_accepted(self, route):
        # every route accepts what `check_trial` admits: on the noisy route a
        # string's exact value reaches (1 + 1e-9)^2, past 1 but inside the
        # sampler's limit, and the seeded samples equal the unit trial's
        trial = StateVector(4, (1.0 + 1e-9) * basis_state("0110").amplitudes)
        unit = ROUTES[route](siam_sum(1.0), basis_state("0110"), 2).raw
        assert ROUTES[route](siam_sum(1.0), trial, 2).raw == pytest.approx(unit, rel=1e-8)

    def test_trial_norm_is_taken_once(self):
        # a sweep over many Hamiltonians pays for one norm of its trial
        trial = basis_state("0110")
        with mock.patch("cmxlab.statevector.scaled_norm", wraps=statevector.scaled_norm) as norm:
            for v in (0.5, 1.0, 2.0):
                for route in ROUTES.values():
                    route(siam_sum(v), trial, 2)
        assert norm.call_count == 1

    def test_non_hermitian_rejected(self):
        # refused when the sum is built, before any moment route sees it
        with pytest.raises(ContractViolationError, match="not Hermitian"):
            PauliSum.from_label_terms([(1.0j, "X")])


class TestRealPowers:
    """Powers built from commuting string pairs: real, and H^l itself."""

    @given(sum_and_trial(6))
    @settings(max_examples=100, deadline=None)
    def test_powers_match_dense_matrix_powers(self, inputs):
        h, _ = inputs
        dense = dense_of_sum(h)
        norm = coefficient_norm(h)
        for l, power in enumerate(hamiltonian_powers(h, 6), start=1):
            want = np.linalg.matrix_power(dense, l)
            # rounding of l-fold products summed over 2**n-long dot
            # products, plus the terms the absolute prune drops: at most one
            # per string with the entry's x-mask, 2**n in all
            dim = 2**h.n_qubits
            bound = (4 * l * dim * np.finfo(float).eps * norm**l
                     + dim * DEFAULT_PRUNE_THRESHOLD)
            assert np.abs(dense_of_sum(power) - want).max() <= bound

    @pytest.mark.parametrize("v", [0.05, 1.0, 20.0])
    def test_siam_powers_are_real(self, v):
        powers = hamiltonian_powers(siam_sum(v), 7)
        assert all(not power.coeff.imag.any() for power in powers)
        assert len(powers[-1]) <= 24

    @pytest.mark.parametrize("dense", [False, True])
    def test_moments_read_the_hermitian_part(self, rng, dense):
        h = random_hermitian_sum(rng, 4, 10)
        # rounding-sized imaginary parts are admitted and dropped
        skewed = PauliSum(4, [(p, complex(c, 1e-11)) for p, c in h.items()])
        assert skewed == h
        state = random_state(rng, 4) if dense else basis_state("0110")
        got, got_cache = raw_moments_pauli(skewed, state, 5)
        want, want_cache = raw_moments_pauli(h, state, 5)
        assert [k.hex() for k in got.raw] == [k.hex() for k in want.raw]
        assert np.array_equal(got_cache.x, want_cache.x)
        assert np.array_equal(got_cache.z, want_cache.z)

    @pytest.mark.parametrize("dense", [False, True])
    def test_admitted_sum_routes_agree(self, rng, dense):
        # a sum admitted with rounding-sized imaginary parts is its real part,
        # on the Pauli route and the dense route alike
        h = random_hermitian_sum(rng, 4, 10)
        skewed = PauliSum(4, [(p, complex(c, 1e-11)) for p, c in h.items()])
        assert skewed == h
        state = random_state(rng, 4) if dense else basis_state("0110")
        via_pauli, _ = raw_moments_pauli(skewed, state, 5)
        via_dense = raw_moments_dense(skewed, state, 5)
        for kp, kd in zip(via_pauli.raw, via_dense.raw):
            assert kp == pytest.approx(kd, rel=1e-10, abs=1e-10)


def sequential_assembly(powers, value):
    """Reference assembly: a per-term loop from 0.0 over the coefficients
    with a memoising dict cache.  Returns the sums, the cache and its hit
    count."""
    cache, hits, totals = {}, 0, []
    for power in powers:
        acc = 0.0
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
    """A sum on 1-3 qubits over a few keys, so identity terms and strings
    repeated within and across its powers are common, an order 1-4, and
    per-string values that include signed zeros."""
    floats = st.floats(-4.0, 4.0, allow_subnormal=False)
    term = st.tuples(st.integers(0, 3), st.integers(0, 3), floats)

    def build(n, raw, order, values):
        m = (1 << n) - 1
        return PauliSum(n, [(PauliString(n, x & m, z & m), c) for x, z, c in raw]), order, values

    return st.builds(
        build,
        st.integers(1, 3),
        st.lists(term, max_size=12),
        st.integers(1, 4),
        st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    )


class TestKernelCalls:
    @pytest.mark.parametrize("dense", [False, True])
    def test_one_kernel_call_per_measured_string(self, rng, dense):
        # the exact route calls the kernel once per string the trial can
        # see, so the call count stays the number of Hadamard tests; the
        # noisy route samples, and so calls the kernel for, every string
        h = random_hermitian_sum(rng, 4, 8)
        state = random_state(rng, 4) if dense else basis_state("0110")
        assert (state.basis_index is None) == dense
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            _, cache = raw_moments_pauli(h, state, 4)
            _, estimates = noisy_moments(h, state, 4, NoiseModel(seed=1))
        calls = [call.args[:2] for call in kernel.call_args_list]
        assert len(calls) == cache.misses + len(estimates)
        exact = calls[: cache.misses]
        assert exact == list(zip(cache.x.tolist(), cache.z.tolist()))
        seen = statevector.visible_strings(estimates.x, state)
        assert exact == list(zip(estimates.x[seen].tolist(), estimates.z[seen].tolist()))
        assert cache.misses + cache.unseen == len(estimates)
        assert cache.misses > 0 and (cache.unseen > 0) != dense


    @pytest.mark.parametrize("dense", [False, True])
    def test_no_string_object_per_measured_string(self, rng, dense):
        # the kernel reads each string's masks from the power's arrays: no
        # route builds a PauliString, and the moments keep their bits
        h = random_hermitian_sum(rng, 4, 8)
        state = random_state(rng, 4) if dense else basis_state("0110")
        assert (state.basis_index is None) == dense

        def both_routes():
            table, cache = raw_moments_pauli(h, state, 4)
            noisy, sampled = noisy_moments(h, state, 4, NoiseModel(seed=1))
            return table.raw, noisy.raw, cache.values.tobytes(), sampled.true.tobytes()

        want = both_routes()
        built = mock.Mock(side_effect=AssertionError("a PauliString was built"))
        with mock.patch.object(PauliString, "__post_init__", built):
            got = both_routes()
        assert built.call_count == 0
        assert got == want


def trial_kinds(max_qubits: int):
    """Strategy for a random 1..max_qubits-qubit sum, an order 1-4 and a
    trial of each kind the visibility rule tells apart: a basis state, a
    basis state rotated by a random generator, 2-4 random nonzero
    amplitudes, and a dense state."""

    def build(n, n_terms, order, seed, kind):
        rng = np.random.default_rng(seed)
        h = random_hermitian_sum(rng, n, n_terms)
        base = basis_state("".join(rng.choice(["0", "1"], size=n)))
        if kind == "basis":
            return h, base, order
        if kind == "rotated":
            generator = PauliString.from_label(random_label(rng, n))
            return h, apply_generator_rotation(rng.uniform(-np.pi, np.pi), generator, base), order
        amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        if kind == "sparse":
            kept = rng.choice(1 << n, size=min(int(rng.integers(2, 5)), 1 << n), replace=False)
            amps[np.setdiff1d(np.arange(1 << n), kept)] = 0.0
        return h, StateVector(n, amps / np.linalg.norm(amps)), order

    return st.builds(
        build,
        st.integers(1, max_qubits),
        st.integers(1, 10),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
        st.sampled_from(["basis", "rotated", "sparse", "dense"]),
    )


class TestVisibleStrings:
    @given(trial_kinds(6))
    @settings(max_examples=150, deadline=None)
    def test_skipping_invisible_strings_keeps_the_bits(self, case):
        # the reference measures every string of the plan; the exact route
        # calls the kernel on the visible ones only, and every string it
        # skips has the kernel value +0.0 it fills in
        h, state, order = case
        plan = MomentPlan(h, order)
        xs, zs = plan.x, plan.z
        values = moments.string_expectations(xs, zs, state)
        want = plan.assemble(values)
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            got, cache = raw_moments_pauli(h, state, order, plan=plan)
        assert [k.hex() for k in got.raw] == [k.hex() for k in want.raw]
        assert kernel.call_count == cache.misses
        seen = statevector.visible_strings(xs, state)
        assert (cache.misses, cache.unseen) == (seen.sum(), (~seen).sum())
        assert cache.x.tobytes() == xs[seen].tobytes()
        assert cache.z.tobytes() == zs[seen].tobytes()
        assert cache.values.tobytes() == values[seen].tobytes()
        assert all(v.hex() == "0x0.0p+0" for v in values[~seen].tolist())

    def test_overflowing_powers_fail_as_before(self):
        # H^2 overflows on strings that flip bits of the trial as well as
        # on diagonal ones: an inf * 0.0 term gives the same NaN moment,
        # and so the same error, whether its string is measured or skipped
        h = siam_sum(1e160)
        state = basis_state("0110")
        plan = MomentPlan(h, 3)
        with pytest.raises(ContractViolationError) as want:
            plan.assemble(moments.string_expectations(plan.x, plan.z, state))
        with pytest.raises(ContractViolationError) as got:
            raw_moments_pauli(h, state, 3, plan=plan)
        assert str(got.value) == str(want.value)

    def test_siam_basis_trial_measures_only_diagonal_strings(self):
        # to K_7 from |0110>, 23 distinct strings, of which the 7 with no X
        # part are measured
        _, cache = raw_moments_pauli(siam_sum(1.0), basis_state("0110"), 7)
        assert (cache.misses, cache.misses + cache.unseen) == (7, 23)
        assert not cache.x.any()


def plan_strings(plan):
    """The (x, z) mask pairs of a plan's strings, in its order."""
    return list(zip(plan.x.tolist(), plan.z.tolist()))


def cache_bytes(cache):
    """Every array of a `PauliExpectationCache` as bytes, with its dtype,
    and its counts."""
    arrays = (cache.x, cache.z, cache.values)
    return (*((a.dtype, a.tobytes()) for a in arrays), cache.hits, cache.unseen)


class TestMomentPlan:
    @given(assembly_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_sequential_loop_bit_for_bit(self, inputs):
        h, order, table = inputs

        def value(x, z):
            return table[4 * x + z]

        want, cache, hits = sequential_assembly(hamiltonian_powers(h, order), value)
        plan = MomentPlan(h, order)
        # every distinct string once, in ascending (x, z) order
        assert plan_strings(plan) == sorted(cache)
        assert plan.terms - len(cache) == hits
        got = plan.assemble([value(x, z) for x, z in plan_strings(plan)])
        assert [k.hex() for k in got.raw[1:]] == [v.hex() for v in want]

    def test_raw_moments_counts_match_a_dict_cache(self, rng):
        h = random_hermitian_sum(rng, 4, 12)
        state = random_state(rng, 4)
        plan = MomentPlan(h, 4)
        want, cache, hits = sequential_assembly(
            hamiltonian_powers(h, 4), lambda x, z: moments.pauli_expectation(x, z, state)
        )
        table, got = raw_moments_pauli(h, state, 4, plan=plan)
        keys = list(zip(got.x.tolist(), got.z.tolist()))
        assert dict(zip(keys, got.values.tolist())) == cache
        assert keys == sorted(cache)
        assert (got.hits, got.misses) == (hits, len(cache))
        assert [k.hex() for k in table.raw[1:]] == [v.hex() for v in want]

    @pytest.mark.parametrize("route", ["pauli", "noisy"])
    def test_too_few_powers_are_refused_before_any_measurement(self, route):
        # both string routes build their tables through a MomentPlan, whose
        # checks come first: no order is below 1, and no string is measured
        # or sampled first
        h, state = siam_sum(1.0), basis_state("0110")
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        sampler = mock.Mock(wraps=hadamard_test_estimate)
        with mock.patch.object(moments, "pauli_expectation", kernel), \
                mock.patch("cmxlab.noise.hadamard_test_estimate", sampler):
            with pytest.raises(ValueError, match="max_order must be >= 1, got 0"):
                MomentPlan(h, 0)
            with pytest.raises(ValueError, match="max_order must be >= 1, got 0"):
                ROUTES[route](h, state, 0)
            assert kernel.call_count == sampler.call_count == 0
            table = ROUTES[route](h, state, 2)
        assert table.max_order == 2 and kernel.call_count > 0
        assert sampler.call_count == (route == "noisy")

    def test_strings_are_strictly_ascending(self, rng):
        h = random_hermitian_sum(rng, 5, 20)
        keys = plan_strings(MomentPlan(h, 3))
        assert len(keys) > 100
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @given(st.integers(1, 5), st.integers(1, 10), st.integers(1, 4), st.integers(1, 4),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_one_plan_serves_many_states(self, n, n_terms, order, n_states, seed):
        # one plan measured on 1-4 states, basis, rotated or dense, gives
        # each the bits of a fresh route call that groups its own strings
        rng = np.random.default_rng(seed)
        h = random_hermitian_sum(rng, n, n_terms)
        plan = MomentPlan(h, order)
        for _ in range(n_states):
            state = random_trial(rng, n)
            got, got_cache = raw_moments_pauli(h, state, order, plan=plan)
            want, want_cache = raw_moments_pauli(h, state, order)
            assert [k.hex() for k in got.raw] == [k.hex() for k in want.raw]
            assert cache_bytes(got_cache) == cache_bytes(want_cache)

    @given(st.integers(1, 5), st.integers(1, 10), st.integers(1, 4), st.integers(0, 3),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_a_plan_for_states_serves_exactly_the_states_it_covers(
        self, n, n_terms, order, n_states, seed
    ):
        # a plan built for 0-3 states measures a probe as a fresh call does,
        # unless the probe sees an x-mask none of those states sees: then it
        # refuses, as it always does for another H or order, before any
        # kernel call
        rng = np.random.default_rng(seed)
        h = random_hermitian_sum(rng, n, n_terms)
        states = [random_trial(rng, n) for _ in range(n_states)]
        plan = MomentPlan(h, order, states)
        probe = random_trial(rng, n)
        want, want_cache = raw_moments_pauli(h, probe, order)
        covered = not states or sees(probe) <= set().union(*map(sees, states))
        shifted = PauliSum(n, [*h.items(), (PauliString.identity(n), 1.0)])
        kernel = mock.Mock(wraps=moments.pauli_expectation)
        with mock.patch.object(moments, "pauli_expectation", kernel):
            for args in ((shifted, probe, order), (h, probe, order + 1)):
                with pytest.raises(ValueError, match="cannot serve this H and state"):
                    raw_moments_pauli(*args, plan=plan)
            if not covered:
                with pytest.raises(ValueError, match="cannot serve this H and state"):
                    raw_moments_pauli(h, probe, order, plan=plan)
                assert kernel.call_count == 0
                return
            assert kernel.call_count == 0
            got, got_cache = raw_moments_pauli(h, probe, order, plan=plan)
        assert [k.hex() for k in got.raw] == [k.hex() for k in want.raw]
        # the same strings and values; the counts of terms that cost no
        # circuit leave out the terms the top power dropped
        assert cache_bytes(got_cache)[:3] == cache_bytes(want_cache)[:3]

    def test_arrays_are_read_only(self, rng):
        plan = MomentPlan(random_hermitian_sum(rng, 3, 6), 3)
        assert len(plan.x) > 0
        for array in (plan.x, plan.z):
            assert array.flags.writeable is False
            with pytest.raises(ValueError):
                array[0] = 0

    def test_values_must_match_the_strings(self):
        plan = MomentPlan(siam_sum(1.0), 3)
        for values in (np.zeros(len(plan.x) - 1), np.zeros(len(plan.x) + 1), 0.0):
            with pytest.raises(ValueError, match=f"values for {len(plan.x)} strings"):
                plan.assemble(values)

    def test_zero_hamiltonian_gives_an_empty_plan(self):
        zero = PauliSum(3)
        plan = MomentPlan(zero, 3)
        assert (len(plan.x), len(plan.z), plan.terms, plan.max_order) == (0, 0, 0, 3)
        assert plan.assemble([]).raw == (1.0, 0.0, 0.0, 0.0)
        table, cache = raw_moments_pauli(zero, basis_state("010"), 3, plan=plan)
        assert table.raw == (1.0, 0.0, 0.0, 0.0)
        assert (cache.misses, cache.unseen, cache.hits) == (0, 0, 0)


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
        assert record_bytes(estimates_a) == record_bytes(estimates_b)


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

    @pytest.mark.parametrize("n", [1, 9, DENSE_QUBIT_LIMIT])
    def test_walsh_tables_match_dense_route(self, rng, n):
        # a 1x1 Sylvester factor, an odd split of the index bits, and the
        # largest state the dense route takes
        h = random_hermitian_sum(rng, n, 8)
        state = random_state(rng, n)
        via_pauli, _ = raw_moments_pauli(h, state, 4)
        via_dense = raw_moments_dense(h, state, 4)
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


# (scale, shift) of SIAM at U = 8, V = 1: every coefficient is dyadic, so
# H = scale * H_SIAM + shift is exact in floats and in Fractions
ORACLE_CASES = {"small": (2**-10, 0), "small-shifted": (2**-10, 1.5), "offset": (1, 2**20)}


@functools.cache
def oracle_case(case):
    """The case's terms and its exact K_0..K_7 from |0110>."""
    scale, shift = ORACLE_CASES[case]
    siam = siam_caption_terms(8.0, 4.0, 0.0, 4.0, 1.0)
    terms = [(Fraction(c) * scale, label) for c, label in siam]
    terms.append((Fraction(shift), "IIII"))
    return terms, exact_moments(terms, "0110", 7)


class TestExactOracle:
    """Both routes against exact rational moments.  CHANGES.md records each
    route's central moments m_4..m_7 on these cases as the baseline for
    unit-free moments."""

    def test_oracle_matches_the_dense_matrix(self):
        terms = siam_caption_terms(8.0, 4.0, 0.0, 4.0, 1.0)
        want = dense_moments(dense_of_terms(terms), basis_vector("0110"), 7)
        got = exact_moments(terms, "0110", 7)
        assert got[:4] == [1, -4, 18, -80]
        assert [float(k) for k in got] == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("route, case", [
        ("dense", "small"),
        ("dense", "small-shifted"),
        ("dense", "offset"),
        pytest.param("pauli", "small", marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="the absolute prune drops every term of H^5..H^7 at scale 2^-10, "
                   "so the Pauli route gives K_5..K_7 = 0.0")),
        ("pauli", "small-shifted"),
        ("pauli", "offset"),
    ])
    def test_route_matches_the_exact_moments(self, route, case):
        terms, exact = oracle_case(case)
        h = PauliSum.from_label_terms([(float(c), label) for c, label in terms])
        table = ROUTES[route](h, basis_state("0110"), 7)
        errors = [float(abs(Fraction(k) - e) / abs(e)) for k, e in zip(table.raw, exact)]
        assert max(errors) <= 1e-14, errors


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
        for solver, text in ((cmx_cioslowski, "cmx-cioslowski:3"), (cmx_knowles, "cmx-knowles:3")):
            energy = solver(table.connected, 3).energy
            assert energy == solver(ivals, 3).energy
            assert energy == evaluate_method(parse_method(text), table).energy
        assert solve_pds(table.raw, 3).ground_energy == evaluate_method(
            parse_method("pds:3"), table).energy
        assert hw_energy_rows(np.array([table.connected]), 0.5, 4)[0] == pytest.approx(
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


def hw_series(table: MomentTable, tau: float, order: int) -> float:
    """The Horn-Weinstein series of one table: a one-row `hw_energy_rows`."""
    return float(hw_energy_rows(np.array([table.connected]), tau, order)[0])


class TestHwSeries:
    def test_tau_zero(self, rng):
        h = random_hermitian_sum(rng, 2, 4)
        table = raw_moments_dense(h, random_state(rng, 2), 5)
        for order in range(5):
            assert hw_series(table, 0.0, order) == table.connected[0]

    def test_small_tau_decreases_when_i2_positive(self):
        table = raw_moments_dense(siam_sum(1.0), basis_state("0110"), 4)
        assert table.connected[1] > 0
        assert hw_series(table, 1e-3, 1) < table.connected[0]

    def test_eigenstate_flat(self):
        raw = tuple((-1.3) ** l for l in range(6))
        table = MomentTable(raw)
        for tau in (0.0, 0.5, 2.0):
            for order in range(5):
                assert hw_series(table, tau, order) == pytest.approx(-1.3, abs=1e-9)

    def test_order_out_of_range(self):
        table = MomentTable((1.0, 0.5, 0.3))
        with pytest.raises(InsufficientMomentsError):
            hw_series(table, 0.1, 2)

    def test_rows_are_summed_one_by_one(self, rng):
        # each row of a stack is bit for bit its own one-row series
        tables = [raw_moments_dense(random_hermitian_sum(rng, 2, 4), random_state(rng, 2), 5)
                  for _ in range(4)]
        stacked = hw_energy_rows(np.array([t.connected for t in tables]), 0.7, 4)
        assert [v.hex() for v in stacked.tolist()] == [
            hw_series(t, 0.7, 4).hex() for t in tables]


class TestKrylov:
    def test_siam_rank_three(self):
        assert krylov_rank(siam_sum(1.0), basis_state("0110"), max_dim=8) == 3

    def test_reachable_spectrum_matches_dense_oracle(self):
        h = siam_sum(1.0)
        alpha, beta = lanczos(h, basis_state("0110"))
        ours = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
        oracle = dense_reachable_spectrum(dense_of_sum(h), basis_vector("0110"))
        assert np.allclose(ours, oracle, atol=1e-8)
        assert np.allclose(
            ours, [-2 - 2 * np.sqrt(2), -4.0, -2 + 2 * np.sqrt(2)], atol=1e-8
        )

    def test_rank_survives_entries_whose_squares_overflow(self):
        # the norms are taken on scaled vectors, so V = 1e200 neither warns
        # nor loses a Krylov direction to an infinite norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank = krylov_rank(siam_sum(1e200), basis_state("0110"), max_dim=8)
        assert rank == krylov_rank(siam_sum(1.0), basis_state("0110"), max_dim=8) == 3

    @given(sum_and_trial(4))
    @settings(max_examples=300, deadline=None)
    def test_rank_and_spectrum_match_dense_oracle(self, inputs):
        h, state = inputs
        alpha, beta = lanczos(h, state)
        ours = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1))
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
        # H^2 overflows float64; the powers, the assembly and the dense chain
        # stay silent and the table names the first non-finite order
        h = PauliSum.from_label_terms([(1e160, "XZ"), (1e160, "ZZ"), (1.0, "YI")])
        for route in ("pauli", "dense"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractViolationError, match="K_2"):
                    ROUTES[route](h, basis_state("01"), 3)

    def test_overflowing_dense_trial_is_rejected_without_warnings(self):
        # both routes refuse the trial at entry by its norm, which is taken
        # without overflow; the Walsh-Hadamard tables, whose amplitude
        # products overflow float64, stay as silent and give a non-finite
        # value
        rng = np.random.default_rng(3)
        state = StateVector(3, 1e160 * (rng.normal(size=8) + 1j * rng.normal(size=8)))
        h = PauliSum.from_label_terms([(0.5, "XZI"), (0.25, "ZZY")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for route in ("pauli", "dense"):
                with pytest.raises(ContractViolationError, match="^trial norm .* is not 1$"):
                    ROUTES[route](h, state, 2)
            for p, _ in h.items():
                assert not math.isfinite(pauli_expectation(p.x_mask, p.z_mask, state))
