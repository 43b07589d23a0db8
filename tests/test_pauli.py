"""Pauli string algebra and Hamiltonian text format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab.errors import CapacityError, DimensionMismatchError, HamiltonianParseError
from cmxlab.pauli import (
    DEFAULT_PRUNE_THRESHOLD,
    PauliString,
    PauliSum,
    parse_pauli_sum,
    serialize_pauli_sum,
)

from conftest import (
    dense_of_sum,
    multiply,
    random_hermitian_sum,
    random_label,
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
        assert s.coefficient(PauliString.from_label("ZI")) == 3.0

    def test_prune_zero(self):
        s = PauliSum.from_label_terms([(0.0, "XX")])
        assert len(s) == 0

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_coefficient_rejected(self, c):
        with pytest.raises(ValueError, match="finite"):
            PauliSum.from_label_terms([(c, "ZI"), (1.0, "XX")])

    def test_is_hermitian(self):
        assert PauliSum.from_label_terms([(1.0, "XY"), (-0.5, "ZZ")]).is_hermitian()
        assert not PauliSum.from_label_terms([(1.0j, "XY")]).is_hermitian()

    def test_real_sums_have_hermitian_dense(self, rng):
        for n in (2, 3, 4):
            h = random_hermitian_sum(rng, n, 6)
            m = dense_of_sum(h)
            assert np.allclose(m, m.conj().T, atol=1e-12)

    def test_product_matches_dense(self, rng):
        for _ in range(25):
            a = random_hermitian_sum(rng, 3, 4)
            b = random_hermitian_sum(rng, 3, 4)
            assert np.allclose(dense_of_sum(a * b), dense_of_sum(a) @ dense_of_sum(b), atol=1e-10)

    def test_add_and_scale(self, rng):
        a = random_hermitian_sum(rng, 2, 3)
        b = random_hermitian_sum(rng, 2, 3)
        assert np.allclose(dense_of_sum(a + b), dense_of_sum(a) + dense_of_sum(b))
        assert np.allclose(dense_of_sum(a.scaled(-2.0)), -2.0 * dense_of_sum(a))

    def test_dimension_mismatch(self):
        a = PauliSum.from_label_terms([(1.0, "X")])
        b = PauliSum.from_label_terms([(1.0, "XX")])
        with pytest.raises(DimensionMismatchError):
            a + b


def canonical(pairs):
    """Terms sorted by (x_mask, z_mask), the order every PauliSum keeps."""
    return sorted(pairs, key=lambda kv: (kv[0].x_mask, kv[0].z_mask))


def scalar_product(a, b):
    """Reference sum product: scalar `multiply` over all pairs, row-major,
    accumulated into a dict, pruned and put in canonical order."""
    collected = {}
    for pa, ca in a.items():
        for pb, cb in b.items():
            q, phase = multiply(pa, pb)
            collected[q] = collected.get(q, 0.0) + ca * cb * 1j**phase
    return canonical(
        (p, c) for p, c in collected.items() if abs(c) >= DEFAULT_PRUNE_THRESHOLD
    )


def exact_terms(pairs):
    """Terms in order with coefficients as bit patterns (signed zeros count)."""
    return [(p, c.real.hex(), c.imag.hex()) for p, c in pairs]


coefficients = st.floats(-4.0, 4.0, allow_subnormal=False)


def sum_pairs(max_terms=10):
    """Two random sums on one qubit count in [1, 12], with complex
    coefficients and repeated keys."""

    def build(n, raw_a, raw_b):
        m = (1 << n) - 1
        return tuple(
            PauliSum(n, [(PauliString(n, x & m, z & m), complex(re, im))
                         for x, z, re, im in raw])
            for raw in (raw_a, raw_b)
        )

    term = st.tuples(st.integers(0, 4095), st.integers(0, 4095), coefficients, coefficients)
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
        assert exact_terms((a * b).items()) == exact_terms(scalar_product(a, b))

    def test_multi_block_product(self, rng):
        # about 50k string products: several row blocks, with keys that recur
        # across blocks
        h = random_hermitian_sum(rng, 6, 30)
        a = h * h * h
        assert len(a) * len(h) > 2 * (1 << 14)
        assert exact_terms((a * h).items()) == exact_terms(scalar_product(a, h))

    def test_64_qubit_product(self):
        rng = np.random.default_rng(64)

        def random_sum(n_terms):
            masks = rng.integers(0, 2**64, size=(n_terms, 2), dtype=np.uint64).tolist()
            masks[0][0] |= 1 << 63  # exercise the top bit
            coeffs = rng.uniform(-1.0, 1.0, size=n_terms).tolist()
            return PauliSum(64, [(PauliString(64, x, z), c) for (x, z), c in zip(masks, coeffs)])

        a, b = random_sum(7), random_sum(5)
        c = a * (a + b)
        assert len(c) == len(scalar_product(a, a + b)) > 0
        assert exact_terms(c.items()) == exact_terms(scalar_product(a, a + b))
        assert all(p.n_qubits == 64 for p, _ in c.items())

    def test_65_qubits_rejected(self):
        with pytest.raises(CapacityError):
            PauliSum(65)
        with pytest.raises(CapacityError):
            PauliSum(65, [(PauliString(65, 1 << 64, 0), 1.0)])

    def test_sum_and_scale_match_dict_fold(self, rng):
        a = random_hermitian_sum(rng, 5, 12)
        b = random_hermitian_sum(rng, 5, 12)
        merged = {}
        for p, c in [*a.items(), *b.items()]:
            merged[p] = merged.get(p, 0.0) + c
        expected = canonical(
            (p, c) for p, c in merged.items() if abs(c) >= DEFAULT_PRUNE_THRESHOLD
        )
        assert exact_terms((a + b).items()) == exact_terms(expected)
        scaled = [(p, c * (0.5 - 2j)) for p, c in a.items()]
        assert exact_terms(a.scaled(0.5 - 2j).items()) == exact_terms(scaled)


class TestOrderIndependentQueries:
    def test_term_order_does_not_matter(self, rng):
        labels = ["XXI", "ZIZ", "IYY", "ZZZ", "XIY"]
        terms = [(float(c), label) for c, label in zip(rng.uniform(-1, 1, 5), labels)]
        forward = PauliSum.from_label_terms(terms)
        backward = PauliSum.from_label_terms(terms[::-1])
        assert [p.label for p, _ in forward.items()] == [p.label for p, _ in backward.items()]
        assert forward == backward
        for c, label in terms:
            p = PauliString.from_label(label)
            assert p in forward and p in backward
            assert forward.coefficient(p) == backward.coefficient(p) == c
        absent = PauliString.from_label("YYY")
        assert absent not in forward and forward.coefficient(absent) == 0.0

    def test_other_qubit_count_lookup(self):
        h = PauliSum.from_label_terms([(2.0, "XZ"), (1.0, "ZZ")])
        assert PauliString.from_label("XZI") not in h
        assert h.coefficient(PauliString.from_label("XZI")) == 0.0

    def test_unequal_sums(self):
        h = PauliSum.from_label_terms([(1.0, "XZ"), (0.5, "ZZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ"), (0.25, "ZZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ"), (0.5, "ZY")])
        assert h != PauliSum.from_label_terms([(1.0, "XZ")])
        assert h != PauliSum.from_label_terms([(1.0, "XZI"), (0.5, "ZZI")])


class TestTextFormat:
    def test_parse_basic(self):
        h = parse_pauli_sum("# comment\n0.5 XX\n0.25 0.0 ZI\n")
        assert len(h) == 2
        assert h.coefficient(PauliString.from_label("XX")) == 0.5

    def test_parse_merges(self):
        h = parse_pauli_sum("1.0 ZI\n2.0 ZI\n")
        assert h.coefficient(PauliString.from_label("ZI")) == 3.0

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

    def test_serialize_metadata(self):
        h = PauliSum.from_label_terms([(1.0, "Z")])
        text = serialize_pauli_sum(h, metadata={"source": "demo"})
        assert "source = demo" in text
        assert parse_pauli_sum(text) == h
