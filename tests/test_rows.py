"""Row solvers: every estimator on a checked record of moment rows at once,
bit for bit the one-table evaluation of each row."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab import cmx, pds
from cmxlab.errors import ContractViolationError, InsufficientMomentsError
from cmxlab.methods import evaluate_method, evaluate_rows, parse_method
from cmxlab.models import H2Coefficients, SiamParams, h2_bk_hamiltonian, siam_hamiltonian
from cmxlab.moments import MomentRows, MomentTable, raw_moments_dense, raw_moments_pauli
from cmxlab.statevector import basis_state

from conftest import sum_and_trial

MAX_ORDER = 9
METHODS = [
    "expectation",
    "hw-series:0:0.5", "hw-series:4:0.7", "hw-series:8:1.3",
    *(f"{name}:{order}" for name in ("pds", "cmx-cioslowski", "cmx-knowles")
      for order in range(1, 6)),
]


def saturated_row() -> tuple[float, ...]:
    # SIAM at U = 8, V = 0.1 from |0110> reaches three levels: PDS(4) and
    # PDS(5) reduce to rank 3 or less
    h = siam_hamiltonian(SiamParams.half_filling(8.0, 0.1))
    return raw_moments_pauli(h, basis_state("0110"), MAX_ORDER)[0].raw


def eigenstate_row() -> tuple[float, ...]:
    # |01> is an eigenstate of the diagonal two-qubit model, up to rounding
    h = h2_bk_hamiltonian(H2Coefficients(0.1, 0.4, -0.3, 0.2, 0.0, 0.0))
    return raw_moments_pauli(h, basis_state("01"), MAX_ORDER)[0].raw


# a non-Gram sequence whose PDS(2) polynomial is x^2 + 1: every root complex
COMPLEX_ROW = (1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0)

# levels -2..2 with weights 1/8, 1/4, 1/4, 1/4, 1/8: every odd moment is
# exactly 0 and the mean is exactly 0, and PDS(5) reaches all five levels
SYMMETRIC_ROW = tuple(
    sum(w * e**k for w, e in zip((1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 8), range(-2, 3)))
    for k in range(MAX_ORDER + 1)
)

FIXED_ROWS = (saturated_row(), eigenstate_row(), COMPLEX_ROW, SYMMETRIC_ROW)


def dense_row(inputs) -> tuple[float, ...]:
    h, trial = inputs
    return raw_moments_dense(h, trial, MAX_ORDER).raw


row = st.one_of(sum_and_trial(4).map(dense_row), st.sampled_from(FIXED_ROWS))


def same(a: float, b: float) -> bool:
    return a.hex() == b.hex() or (math.isnan(a) and math.isnan(b))


def assert_rows_match_tables(spec, rows):
    energy, singular, condition, pinv = evaluate_rows(spec, MomentRows(rows))
    for i, r in enumerate(rows):
        one = evaluate_method(spec, MomentTable(r))
        assert same(energy[i].item(), one.energy)
        assert singular[i].item() is one.singular_flag
        assert same(condition[i].item(), one.condition_number)
        assert pinv[i].item() is one.used_pseudo_inverse


class TestRowsEqualTables:
    @given(st.lists(row, min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_every_method_matches_evaluate_method_bit_for_bit(self, rows):
        for text in METHODS:
            assert_rows_match_tables(parse_method(text), rows)

    def test_the_stack_mixes_every_kind_of_row(self):
        # the fixed rows take the branches the property relies on
        rows = MomentRows([saturated_row(), eigenstate_row(), COMPLEX_ROW])
        energy, singular, condition, pinv = evaluate_rows(parse_method("pds:4"), rows)
        assert pinv[:2].all() and math.isfinite(energy[0])
        assert condition[1] == math.inf
        energy, singular, _, _ = evaluate_rows(parse_method("pds:2"), rows)
        assert math.isnan(energy[2]) and singular[2]
        assert not singular[:2].any()
        _, singular, _, _ = evaluate_rows(parse_method("cmx-cioslowski:3"), rows)
        assert singular[1]

    def test_pds_rows_match_solve_pds(self):
        rows = np.array(FIXED_ROWS[:2])
        for order in range(1, 6):
            stacked = pds.solve_pds_rows(rows, order)
            for i, r in enumerate(FIXED_ROWS[:2]):
                one = pds.solve_pds(r, order)
                assert stacked.roots[i].tolist() == list(one.roots)
                assert stacked.ground_energy[i].item() == one.ground_energy

    def test_cmx_rows_match_the_one_table_results(self):
        tables = [MomentTable(r) for r in FIXED_ROWS]
        ivals = np.array([t.connected for t in tables])
        for order in range(1, 6):
            for rows_fn, one_fn in ((cmx.cioslowski_rows, cmx.cmx_cioslowski),
                                    (cmx.knowles_rows, cmx.cmx_knowles)):
                stacked = rows_fn(ivals, order)
                for i, table in enumerate(tables):
                    one = one_fn(table.connected, order)
                    assert stacked.energies[i].tolist() == list(one.energies)
                    assert bool(stacked.singular_flag[i]) is one.singular_flag


class TestOneCallPerStack:
    @pytest.mark.parametrize("size", [1, 2, 17])
    def test_lapack_steps_do_not_grow_with_the_stack(self, size):
        rows = MomentRows([saturated_row()] * size)
        calls = {}
        for module, name in ((pds, "symmetric_spectrum"), (cmx, "symmetric_spectrum")):
            counted = mock.Mock(wraps=getattr(module, name))
            calls[module.__name__] = counted
            with mock.patch.object(module, name, counted):
                evaluate_rows(parse_method("pds:4" if module is pds else "cmx-knowles:4"), rows)
        # PDS(4) saturates at rank 3: one solve at order 4, one at order 3;
        # Knowles solves orders 2, 3 and 4
        assert calls["cmxlab.pds"].call_count == 2
        assert calls["cmxlab.cmx"].call_count == 3
        with mock.patch("numpy.linalg.det", wraps=np.linalg.det) as det:
            evaluate_rows(parse_method("cmx-cioslowski:4"), rows)
        assert det.call_count == 6


SPECIAL = (math.inf, -math.inf, math.nan, 0.5, 1e200, -1e200, 1e300)


@st.composite
def moment_stacks(draw):
    """Stacks of 1-12 rows of 2-10 moments K_0 = 1, K_1, ...; in a damaged
    stack each row may have a few entries replaced by an infinity, a NaN, a
    value whose connected moments overflow, or a K_0 other than 1."""
    width = draw(st.integers(2, 10))
    damaged = draw(st.booleans())
    stack = []
    for _ in range(draw(st.integers(1, 12))):
        row = [1.0, *draw(st.lists(st.floats(-1e3, 1e3), min_size=width - 1,
                                   max_size=width - 1))]
        if damaged:
            for k, value in draw(st.lists(st.tuples(st.integers(0, width - 1),
                                                    st.sampled_from(SPECIAL)), max_size=2)):
                row[k] = value
        stack.append(row)
    return stack


def hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


class TestMomentRows:
    @given(moment_stacks())
    @settings(max_examples=300, deadline=None)
    def test_the_record_is_the_tables_built_row_by_row(self, stack):
        try:
            tables = [MomentTable(tuple(row)) for row in stack]
        except (ValueError, ContractViolationError) as error:
            with pytest.raises(type(error)) as record_error:
                MomentRows(stack)
            assert str(record_error.value) == str(error)
            return
        rows = MomentRows(stack)
        assert rows.raw.dtype == rows.connected.dtype == np.float64
        assert rows.raw.shape == (len(stack), len(stack[0]))
        assert rows.connected.shape == (len(stack), len(stack[0]) - 1)
        assert not rows.raw.flags.writeable and not rows.connected.flags.writeable
        for r, table in enumerate(tables):
            assert hexes(rows.raw[r]) == hexes(table.raw)
            assert hexes(rows.connected[r]) == hexes(table.connected)
            assert hexes(table.rows.connected[0]) == hexes(table.connected)

    def test_the_record_keeps_no_reference_to_its_input(self):
        stack = np.array([saturated_row()] * 2)
        rows = MomentRows(stack)
        stack[0, 1] = math.inf
        assert math.isfinite(rows.raw[0, 1])


class TestRowErrors:
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_row_raises_what_moment_table_raises(self, bad):
        rows = [list(saturated_row()) for _ in range(3)]
        rows[1][4] = bad
        with pytest.raises(ContractViolationError) as table_error:
            MomentTable(tuple(rows[1]))
        with pytest.raises(ContractViolationError) as rows_error:
            MomentRows(rows)
        assert str(rows_error.value) == str(table_error.value)
        assert str(rows_error.value) == f"raw moment K_4 = {bad} is not finite"

    def test_first_bad_row_is_reported(self):
        # row 1 overflows only in its connected moments, row 2 in a raw one:
        # row 1 is reported, as building the tables in order would
        rows = [list(saturated_row()) for _ in range(3)]
        rows[1][1:4] = [1e200, 1e200, 1e200]
        rows[2][3] = math.inf
        with pytest.raises(ContractViolationError) as table_error:
            MomentTable(tuple(rows[1]))
        assert "connected moment" in str(table_error.value)
        with pytest.raises(ContractViolationError) as rows_error:
            MomentRows(np.array(rows))
        assert str(rows_error.value) == str(table_error.value)

    def test_rows_must_start_with_one(self):
        with pytest.raises(ValueError, match="K_0 = 1"):
            MomentRows([[1.0, 0.5], [0.9, 0.5]])
        # a non-finite row before it is reported first, as in table order
        with pytest.raises(ContractViolationError, match="K_1 = inf"):
            MomentRows([[1.0, math.inf], [0.9, 0.5]])

    @pytest.mark.parametrize("build, shape", [
        (lambda: MomentRows([1.0, 0.5]), "(2,)"),
        (lambda: MomentRows([[1.0]]), "(1, 1)"),
        (lambda: MomentTable((1.0,)), "(1, 1)"),
        (lambda: pds.solve_pds([1.0], 1), "(1, 1)"),
    ], ids=["flat", "one-column", "table", "solve_pds"])
    def test_a_bad_shape_is_named(self, build, shape):
        # K_0 is 1 in every case: the shape, not K_0, is what is wrong
        with pytest.raises(ValueError) as error:
            build()
        assert str(error.value) == (
            f"moment rows must be 2-d with at least K_0 and K_1 per row, got shape {shape}")

    def test_short_rows_raise_what_the_solvers_raise(self):
        rows = MomentRows([saturated_row()[:4]] * 2)
        with pytest.raises(InsufficientMomentsError, match=r"PDS\(3\) needs K_0..K_5"):
            evaluate_rows(parse_method("pds:3"), rows)
        with pytest.raises(InsufficientMomentsError, match="order 3 needs I_1..I_5, have 3"):
            evaluate_rows(parse_method("cmx-knowles:3"), rows)
