"""Pauli string algebra and Hamiltonian text format."""

import math
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab.errors import (
    CapacityError,
    ContractViolationError,
    DimensionMismatchError,
    HamiltonianParseError,
)
from cmxlab.moments import MomentPlan, hamiltonian_powers, raw_moments_pauli
from cmxlab.noise import NoiseModel, noisy_moments
from cmxlab.pauli import (
    DEFAULT_PRUNE_THRESHOLD,
    HERMITIAN_TOLERANCE,
    PauliString,
    PauliSum,
    _key_type,
    find_string,
    parse_pauli_sum,
    serialize_pauli_sum,
)

from conftest import (
    dense_of_sum,
    multiply,
    random_hermitian_sum,
    random_label,
    record_strings,
    reduce_product,
    string_matrix,
)


def strings(max_qubits=4):
    def build(n, x, z):
        return PauliString(n, x % (1 << n), z % (1 << n))

    return st.builds(
        build,
        st.integers(1, max_qubits),
        st.integers(0, 15),
        st.integers(0, 15),
    )


def pairs(max_qubits=3):
    def build(n, x1, z1, x2, z2):
        m = (1 << n) - 1
        return PauliString(n, x1 & m, z1 & m), PauliString(n, x2 & m, z2 & m)

    return st.builds(
        build,
        st.integers(1, max_qubits),
        st.integers(0, 15), st.integers(0, 15),
        st.integers(0, 15), st.integers(0, 15),
    )


class TestMultiply:
    """The scalar product oracle (conftest) that the array product is held to."""

    def test_x_times_y_is_iz(self):
        result, phase = multiply(PauliString.from_label("X"), PauliString.from_label("Y"))
        assert result.label == "Z"
        assert phase == 1

    def test_xx_times_yy_is_minus_zz(self):
        result, phase = multiply(PauliString.from_label("XX"), PauliString.from_label("YY"))
        assert result.label == "ZZ"
        assert phase == 2

    @given(strings())
    def test_involution(self, p):
        square, phase = multiply(p, p)
        assert square.is_identity
        assert phase == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(PauliString.from_label("X"), PauliString.from_label("XX"))

    @given(pairs())
    @settings(max_examples=150)
    def test_group_closure(self, pair):
        a, b = pair
        c, phase = multiply(a, b)
        assert phase in (0, 1, 2, 3)
        assert c.x_mask < (1 << a.n_qubits) and c.z_mask < (1 << a.n_qubits)

    @given(pairs())
    @settings(max_examples=100)
    def test_matches_dense(self, pair):
        a, b = pair
        product = string_matrix(a) @ string_matrix(b)
        assert np.allclose(string_matrix(*multiply(a, b)), product, atol=1e-12)

    @given(pairs())
    @settings(max_examples=100)
    def test_commutation_sign(self, pair):
        # a*b = +-b*a, with the sign given by the symplectic inner product
        a, b = pair
        (ab, ab_phase), (ba, ba_phase) = multiply(a, b), multiply(b, a)
        assert ab == ba
        symplectic = (
            (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
        ) % 2
        assert (ab_phase == ba_phase) == (symplectic == 0)

    def test_associativity_sample(self, rng):
        for _ in range(50):
            a, b, c = (PauliString.from_label(random_label(rng, 3)) for _ in range(3))
            (ab, k1), (bc, k2) = multiply(a, b), multiply(b, c)
            (left, k3), (right, k4) = multiply(ab, c), multiply(a, bc)
            assert (left, (k1 + k3) % 4) == (right, (k2 + k4) % 4)


class TestReduceProduct:
    def test_triple_x(self):
        x = PauliString.from_label("X")
        assert reduce_product([x, x, x]) == (x, 0)

    def test_commuting_z_cancel(self):
        zi = PauliString.from_label("ZI")
        ix = PauliString.from_label("IX")
        assert reduce_product([zi, ix, zi]) == (ix, 0)

    def test_empty_is_identity(self):
        assert reduce_product([], n_qubits=3) == (PauliString.identity(3), 0)

    def test_empty_without_size(self):
        with pytest.raises(ValueError):
            reduce_product([])

    def test_random_three_factor_vs_dense(self, rng):
        for _ in range(40):
            factors = [PauliString.from_label(random_label(rng, 3)) for _ in range(3)]
            dense = string_matrix(factors[0])
            for f in factors[1:]:
                dense = dense @ string_matrix(f)
            assert np.allclose(string_matrix(*reduce_product(factors)), dense, atol=1e-12)


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("I", "XYZI", "ZZ", "YXIZ"):
            assert PauliString.from_label(label).label == label

    def test_phaseless_is_hermitian_unitary_dense(self, rng):
        for _ in range(20):
            p = PauliString.from_label(random_label(rng, 3))
            m = string_matrix(p)
            assert np.allclose(m, m.conj().T, atol=1e-12)
            assert np.allclose(m @ m, np.eye(8), atol=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PauliString(1, 2, 0)


class TestPauliSum:
    def test_merge_repeated_labels(self):
        s = PauliSum.from_label_terms([(1.0, "ZI"), (2.0, "ZI")])
        assert len(s) == 1
        assert dict(s.items()) == {PauliString.from_label("ZI"): 3.0}

    def test_prune_zero(self):
        s = PauliSum.from_label_terms([(0.0, "XX")])
        assert len(s) == 0

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            PauliSum.from_label_terms([(c, "ZI"), (1.0, "XX")])

    def test_is_hermitian(self):
        # Hermitian by construction: real coefficients are stored, and a
        # coefficient with a real imaginary part is refused by label
        h = PauliSum.from_label_terms([(1.0, "XY"), (-0.5, "ZZ")])
        assert h.coeff.dtype == np.float64 and not h.coeff.flags.writeable
        with pytest.raises(ContractViolationError, match="XY"):
            PauliSum.from_label_terms([(-0.5, "ZZ"), (1.0j, "XY")])

    def test_real_sums_have_hermitian_dense(self, rng):
        for n in (2, 3, 4):
            h = random_hermitian_sum(rng, n, 6)
            m = dense_of_sum(h)
            assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_product_matches_dense(self, rng):
        # (AB + BA) / 2, also of a sum admitted with rounding-sized
        # imaginary parts
        for _ in range(25):
            a, b = random_hermitian_sum(rng, 3, 4), random_hermitian_sum(rng, 3, 4)
            skewed = PauliSum(3, [(p, c + 1e-11j) for p, c in a.items()])
            da, db = dense_of_sum(a), dense_of_sum(b)
            for left in (a, skewed):
                got = dense_of_sum(left.symmetric_product(b))
                assert np.allclose(got, (da @ db + db @ da) / 2.0, atol=1e-10)

    def test_dimension_mismatch(self):
        a = PauliSum.from_label_terms([(1.0, "X")])
        b = PauliSum.from_label_terms([(1.0, "XX")])
        with pytest.raises(DimensionMismatchError):
            a.symmetric_product(b)


def collected_terms(terms):
    """Label -> summed complex coefficient, added in occurrence order."""
    collected = {}
    for c, label in terms:
        collected[label] = collected.get(label, 0.0) + c
    return collected


def hermitian_rule(terms):
    """The rule a sum is held to, on its collected terms that survive the
    prune: every |Im c| <= HERMITIAN_TOLERANCE * max(1, largest |c|)."""
    kept = [c for c in collected_terms(terms).values() if abs(c) >= DEFAULT_PRUNE_THRESHOLD]
    scale = max((abs(c) for c in kept), default=0.0)
    return all(abs(c.imag) <= HERMITIAN_TOLERANCE * max(1.0, scale) for c in kept)


@st.composite
def skewed_terms(draw):
    """A 1-3 qubit term list whose imaginary parts are zero, near the
    tolerance or of order one, plus terms that cancel some of them on a
    repeated label."""
    n = draw(st.integers(1, 3))
    label = st.text("IXYZ", min_size=n, max_size=n)
    real = st.floats(-2.0, 2.0, allow_subnormal=False)
    imag = st.one_of(st.just(0.0), st.floats(-4e-10, 4e-10, allow_subnormal=False), real)
    terms = draw(st.lists(st.tuples(real, imag, label), min_size=1, max_size=8))
    cancel = draw(st.lists(st.sampled_from(terms), max_size=3))
    return n, [(complex(re, im), lb) for re, im, lb in terms + [(0.0, -im, lb) for _, im, lb in cancel]]


class TestHermitianContract:
    @given(skewed_terms())
    @settings(max_examples=300, deadline=None)
    def test_refused_iff_the_collected_terms_break_the_rule(self, drawn):
        n, terms = drawn
        if not hermitian_rule(terms):
            with pytest.raises(ContractViolationError, match="not Hermitian"):
                PauliSum.from_label_terms(terms, n)
            return
        h = PauliSum.from_label_terms(terms, n)
        want = {label: c.real for label, c in collected_terms(terms).items()
                if abs(c.real) >= DEFAULT_PRUNE_THRESHOLD}
        assert {p.label: c for p, c in h.items()} == want
        assert h.coeff.dtype == np.float64

    def test_tolerance_is_relative_to_the_largest_coefficient(self):
        PauliSum.from_label_terms([(1e3, "ZI"), (5e-8j, "XX")])
        with pytest.raises(ContractViolationError, match="XX"):
            PauliSum.from_label_terms([(1.0, "ZI"), (5e-8j, "XX")])

    def test_parse_and_label_terms_raise_the_same_error(self):
        with pytest.raises(ContractViolationError) as parsed:
            parse_pauli_sum("0.25 XIX\n0.5 0.2 ZZI\n")
        with pytest.raises(ContractViolationError) as built:
            PauliSum.from_label_terms([(0.25, "XIX"), (0.5 + 0.2j, "ZZI")])
        assert str(parsed.value) == str(built.value)
        assert "ZZI" in str(built.value)

    def test_admitted_imaginary_column_is_dropped(self):
        h = parse_pauli_sum("0.5 1e-12 ZZI\n0.25 XIX\n")
        assert h == parse_pauli_sum("0.5 ZZI\n0.25 XIX\n")
        assert serialize_pauli_sum(h) == "n_qubits = 3\n0.25 XIX\n0.5 ZZI\n"


def canonical(pairs):
    """Terms sorted by (x_mask, z_mask), the order every PauliSum keeps."""
    return sorted(pairs, key=lambda kv: (kv[0].x_mask, kv[0].z_mask))


def scalar_product(a, b):
    """Reference symmetric product: scalar `multiply` over the commuting
    pairs, row-major, each signed by its phase (0 or 2),
    accumulated into a dict, pruned and put in canonical order."""
    collected = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            parity = (pa.x_mask & pb.z_mask).bit_count() + (pa.z_mask & pb.x_mask).bit_count()
            if parity % 2:
                continue
            q, phase = multiply(pa, pb)
            assert phase in (0, 2)
            term = ca * cb
            collected[q] = collected.get(q, 0.0) + (-term if phase else term)
    return canonical(
        (p, c) for p, c in collected.items() if abs(c) >= DEFAULT_PRUNE_THRESHOLD
    )


def exact_terms(pairs):
    """Terms in order with coefficients as bit patterns (signed zeros count)."""
    return [(p, c.hex()) for p, c in pairs]


coefficients = st.floats(-4.0, 4.0, allow_subnormal=False)


def sum_pairs(max_terms=10):
    """Two random sums on one qubit count in [1, 12], with real
    coefficients and repeated keys."""

    def build(n, raw_a, raw_b):
        m = (1 << n) - 1
        return tuple(
            PauliSum(n, [(PauliString(n, x & m, z & m), c) for x, z, c in raw])
            for raw in (raw_a, raw_b)
        )

    term = st.tuples(st.integers(0, 4095), st.integers(0, 4095), coefficients)
    return st.builds(
        build,
        st.integers(1, 12),
        st.lists(term, max_size=max_terms),
        st.lists(term, max_size=max_terms),
    )


class TestArrayProduct:
    @given(sum_pairs())
    @settings(max_examples=200, deadline=None)
    def test_matches_scalar_fold_bit_for_bit(self, pair):
        a, b = pair
        assert exact_terms(a.symmetric_product(b).items()) == exact_terms(scalar_product(a, b))

    def test_multi_block_product(self, rng):
        # about 117k string pairs: at least four row blocks of 2 * 2**14
        # pairs, with keys that recur across blocks
        h = random_hermitian_sum(rng, 6, 40)
        a = h.symmetric_product(h).symmetric_product(h)
        assert len(a) * len(h) > 3 * 2 * (1 << 14)
        assert exact_terms(a.symmetric_product(h).items()) == exact_terms(scalar_product(a, h))

    def test_multi_block_product_past_32_qubits(self, rng):
        # a 6-qubit sum spread onto qubits up to 47 needs uint64 keys; its
        # products recur across at least two row blocks of 2 * 2**14 pairs
        n, sites = 48, (0, 9, 31, 32, 40, 47)

        def spread(mask):
            return sum(1 << site for q, site in enumerate(sites) if mask >> q & 1)

        small = random_hermitian_sum(rng, 6, 40)
        h = PauliSum(n, [(PauliString(n, spread(p.x_mask), spread(p.z_mask)), c)
                         for p, c in small.items()])
        a = h.symmetric_product(h).symmetric_product(h)
        assert int(a.x.max() | a.z.max()) >> 32
        assert len(a) > 2 * (1 << 14) // len(h) + 1
        assert exact_terms(a.symmetric_product(h).items()) == exact_terms(scalar_product(a, h))

    @pytest.mark.parametrize("left, right", [(["X"], ["Z"]), (["X", "Y"], ["Z"]),
                                             (["XZ", "YZ"], ["ZI", "ZZ"])])
    def test_all_pairs_anticommute(self, left, right):
        # every string pair cancels in (AB + BA) / 2, in either order
        a = PauliSum.from_label_terms([(0.5 + k, label) for k, label in enumerate(left)])
        b = PauliSum.from_label_terms([(-0.25 - k, label) for k, label in enumerate(right)])
        for product in (a.symmetric_product(b), b.symmetric_product(a)):
            self.assert_empty(product, a.n_qubits)

    def test_empty_factor(self, rng):
        h = random_hermitian_sum(rng, 3, 6)
        for product in (PauliSum(3).symmetric_product(h), h.symmetric_product(PauliSum(3))):
            self.assert_empty(product, 3)

    @staticmethod
    def assert_empty(product, n_qubits):
        assert product.n_qubits == n_qubits and len(product) == 0
        # an empty product keeps the mask width of a non-empty sum of its size
        key = PauliSum.from_label_terms([(1.0, "Z" * n_qubits)]).x.dtype
        assert (product.x.dtype, product.z.dtype, product.coeff.dtype) == (
            key, key, np.float64)
        assert not any(a.flags.writeable for a in (product.x, product.z, product.coeff))

    def test_64_qubit_product(self):
        rng = np.random.default_rng(64)

        def random_sum(n_terms):
            masks = rng.integers(0, 2**64, size=(n_terms, 2), dtype=np.uint64).tolist()
            masks[0][0] |= 1 << 63  # exercise the top bit
            coeffs = rng.uniform(-1.0, 1.0, size=n_terms).tolist()
            return PauliSum(64, [(PauliString(64, x, z), c) for (x, z), c in zip(masks, coeffs)])

        a, b = random_sum(7), random_sum(5)
        ab = PauliSum(64, [*a.items(), *b.items()])
        c = a.symmetric_product(ab)
        assert len(c) == len(scalar_product(a, ab)) > 0
        assert exact_terms(c.items()) == exact_terms(scalar_product(a, ab))
        assert all(p.n_qubits == 64 for p, _ in c.items())

    def test_65_qubits_rejected(self):
        with pytest.raises(CapacityError):
            PauliSum(65)
        with pytest.raises(CapacityError):
            PauliSum(65, [(PauliString(65, 1 << 64, 0), 1.0)])


@st.composite
def masked_products(draw):
    """Two random Hermitian sums on 1-6 qubits and a bool table over their
    x-masks: all True, all False or drawn bit by bit."""
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = random_hermitian_sum(rng, n, draw(st.integers(1, 30)))
    b = random_hermitian_sum(rng, n, draw(st.integers(1, 12)))
    kind = draw(st.sampled_from(["all", "none", "drawn"]))
    if kind == "drawn":
        seen = np.array(draw(st.lists(st.booleans(), min_size=1 << n, max_size=1 << n)))
    else:
        seen = np.full(1 << n, kind == "all")
    seen.setflags(write=False)
    return a, b, seen


def filtered(product, seen):
    """The terms of a product whose x-mask the table marks, as bit patterns."""
    return [(p, c.hex()) for p, c in product.items() if seen[p.x_mask]]


class TestMaskedProduct:
    """A product with a seen table is the full product filtered by it: the
    same strings in the same order, each coefficient bit for bit."""

    @given(masked_products())
    @settings(max_examples=200, deadline=None)
    def test_masked_product_is_the_filtered_full_product(self, case):
        a, b, seen = case
        full = a.symmetric_product(b)
        masked = a.symmetric_product(b, seen)
        assert exact_terms(masked.items()) == filtered(full, seen)
        if seen.all():
            assert masked == full
        assert not any(x.flags.writeable for x in (masked.x, masked.z, masked.coeff))

    @given(masked_products(), st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_powers_mask_only_the_top_power(self, case, order):
        h, _, seen = case
        whole = hamiltonian_powers(h, order)
        masked = hamiltonian_powers(h, order, seen)
        assert masked[:-1] == whole[:-1]
        # H^1 is no product, so it stays whole
        want = exact_terms(h.items()) if order == 1 else filtered(whole[-1], seen)
        assert exact_terms(masked[-1].items()) == want

    def test_multi_block_masked_product(self, rng):
        # blocks of a masked product follow its smaller collected count, so
        # they split the pairs differently from the full product's blocks
        h = random_hermitian_sum(rng, 6, 40)
        a = h.symmetric_product(h).symmetric_product(h)
        assert len(a) * len(h) > 3 * 2 * (1 << 14)
        seen = rng.random(64) < 0.3
        assert exact_terms(a.symmetric_product(h, seen).items()) == filtered(
            a.symmetric_product(h), seen)


class TestOrderIndependentQueries:
    def test_term_order_does_not_matter(self, rng):
        labels = ["XXI", "ZIZ", "IYY", "ZZZ", "XIY"]
        terms = [(float(c), label) for c, label in zip(rng.uniform(-1, 1, 5), labels)]
        forward = PauliSum.from_label_terms(terms)
        backward = PauliSum.from_label_terms(terms[::-1])
        assert [p.label for p, _ in forward.items()] == [p.label for p, _ in backward.items()]
        assert forward == backward
        coefficients = dict(forward.items())
        assert coefficients == dict(backward.items())
        for c, label in terms:
            p = PauliString.from_label(label)
            assert p in forward and p in backward
            assert coefficients[p] == c
        absent = PauliString.from_label("YYY")
        assert absent not in forward and absent not in coefficients

    def test_other_qubit_count_lookup(self):
        h = PauliSum.from_label_terms([(2.0, "XZ"), (1.0, "ZZ")])
        assert PauliString.from_label("XZI") not in h
        assert PauliString.from_label("XZI") not in dict(h.items())

    def test_unequal_sums(self):
        h = PauliSum.from_label_terms([(1.0, "XZ"), (0.5, "ZZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ"), (0.25, "ZZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ"), (0.5, "ZY")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZI"), (0.5, "ZZI")])


# the mask dtype of an n-qubit sum at each edge of the width rule
MASK_WIDTHS = {1: np.uint8, 8: np.uint8, 9: np.uint16, 16: np.uint16, 17: np.uint32,
               32: np.uint32, 33: np.uint64, 64: np.uint64}


def top_bit_sum(n):
    """An n-qubit sum whose strings reach qubit n - 1, the masks' top bit,
    and qubit 0, and whose square holds the identity."""
    top = 1 << (n - 1)
    masks = [(top, 0), (0, top | 1), (1, 1), (top | 1, top), (top, top)]
    return PauliSum(n, [(PauliString(n, x, z), 0.5 + k) for k, (x, z) in enumerate(masks)])


def stand_in_kernel() -> ExitStack:
    """Replace the trial check and the expectation kernel of both Pauli
    routes with a zero for every string, and the exact route's visibility
    rule with one that sees every string: the masks' path does not read the
    state, and no dense trial fits in memory past about 30 qubits."""
    stack = ExitStack()
    for module in ("cmxlab.moments", "cmxlab.noise"):
        stack.enter_context(mock.patch.multiple(
            module, check_trial=mock.DEFAULT,
            string_expectations=lambda xs, zs, state: np.zeros(len(xs))))
    stack.enter_context(mock.patch(
        "cmxlab.moments.visible_strings", lambda xs, state: np.ones(len(xs), bool)))
    return stack


class TestMaskWidth:
    @pytest.mark.parametrize("n, key", sorted(MASK_WIDTHS.items()))
    def test_every_mask_array_has_the_sum_width(self, n, key):
        assert _key_type(n) == key
        h = top_bit_sum(n)
        top = 1 << (n - 1)
        x_top = PauliSum(n, [(PauliString(n, top, 0), 1.0)])
        z_top = PauliSum(n, [(PauliString(n, 0, top), 1.0)])
        empty = x_top.symmetric_product(z_top)
        assert len(empty) == 0
        powers = hamiltonian_powers(h, 3)
        plan = MomentPlan(h, 3)
        assert plan.assemble(np.zeros(len(plan.x))).max_order == 3
        with stand_in_kernel():
            _, cache = raw_moments_pauli(h, None, 3)
            _, sampled = noisy_moments(h, None, 3, NoiseModel(shots=64))
        assert len(plan.x) == cache.misses == len(sampled) > 0
        for masks in (h, x_top, empty, PauliSum(n), *powers, plan, cache, sampled):
            assert (masks.x.dtype, masks.z.dtype) == (key, key)

    @pytest.mark.parametrize("n", [8, 9, 33, 64])
    def test_lookups(self, n):
        top = 1 << (n - 1)
        h = top_bit_sum(n)
        square = h.symmetric_product(h)
        with stand_in_kernel():
            _, sampled = noisy_moments(h, None, 2, NoiseModel(shots=64))
        identity = PauliString.identity(n)
        # strings with an X or Z part on qubit 2, which no string of h or
        # its square has: one in the run of a present x-mask, one not
        absent = [PauliString(n, top, 4), PauliString(n, 4 | top, top)]
        other_size = [PauliString(n - 1, 1, 1), PauliString(n + 1, 1, 1)]
        present = [PauliString(n, top | 1, top), PauliString(n, top, 0)]
        assert all(p in h for p in present)
        assert all(p in square for p, _ in square.items())
        assert all(p not in h and p not in square for p in absent + other_size)
        assert identity in square and identity not in h
        strings = record_strings(sampled)
        assert [sampled[p] for p in strings] == list(sampled.values())
        assert all(p in strings for p in present)
        for p in absent + other_size + [identity]:
            with pytest.raises(KeyError):
                sampled[p]

    def test_find_string_matches_a_linear_scan(self, rng):
        h = random_hermitian_sum(rng, 5, 20)
        h = h.symmetric_product(h)
        for x in range(1 << 5):
            for z in range(1 << 5):
                hits = np.flatnonzero((h.x == x) & (h.z == z))
                assert find_string(h.x, h.z, x, z) == (int(hits[0]) if len(hits) else None)


class TestTextFormat:
    def test_parse_basic(self):
        h = parse_pauli_sum("# comment\n0.5 XX\n0.25 0.0 ZI\n")
        assert len(h) == 2
        assert dict(h.items())[PauliString.from_label("XX")] == 0.5

    def test_parse_merges(self):
        h = parse_pauli_sum("1.0 ZI\n2.0 ZI\n")
        assert dict(h.items()) == {PauliString.from_label("ZI"): 3.0}

    def test_parse_prunes(self):
        assert len(parse_pauli_sum("0.0 XX\n")) == 0

    def test_parse_header(self):
        h = parse_pauli_sum("n_qubits = 3\ntitle = demo\n1.0 XIZ\n")
        assert h.n_qubits == 3

    def test_empty_sum_needs_header(self):
        assert len(parse_pauli_sum("n_qubits = 2\n")) == 0
        with pytest.raises(HamiltonianParseError):
            parse_pauli_sum("# nothing\n")

    def test_bad_label_reports_line(self):
        with pytest.raises(HamiltonianParseError) as err:
            parse_pauli_sum("1.0 XX\n2.0 XQ\n")
        assert err.value.line_number == 2

    def test_length_mismatch_reports_line(self):
        with pytest.raises(HamiltonianParseError) as err:
            parse_pauli_sum("1.0 XX\n2.0 XXX\n")
        assert err.value.line_number == 2

    def test_bad_coefficient(self):
        with pytest.raises(HamiltonianParseError):
            parse_pauli_sum("abc XX\n")

    @pytest.mark.parametrize("line", ["nan ZI", "inf ZI", "1.0 -inf ZI", "1.0 nan ZI"])
    def test_non_finite_coefficient_reports_line(self, line):
        with pytest.raises(HamiltonianParseError) as err:
            parse_pauli_sum(f"1.0 XX\n{line}\n")
        assert err.value.line_number == 2

    def test_round_trip_bit_exact(self, rng):
        for _ in range(10):
            h = random_hermitian_sum(rng, 3, 5)
            text = serialize_pauli_sum(h)
            again = parse_pauli_sum(text)
            assert again == h
            assert serialize_pauli_sum(again) == text

    def test_serialize_sorted_and_formatted(self):
        h = PauliSum.from_label_terms([(0.1, "ZI"), (1.0 / 3.0, "IX")])
        text = serialize_pauli_sum(h)
        lines = text.splitlines()
        assert lines[0] == "n_qubits = 2"
        assert lines[1].endswith("IX") and lines[2].endswith("ZI")
        assert "0.33333333333333331" in lines[1]
