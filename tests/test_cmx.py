"""CMX solvers: S-recursion vs closed forms, Knowles system, diagnostics."""

import numpy as np
import pytest

from cmxlab._linalg import SINGULARITY_TOLERANCE
from cmxlab.cmx import cmx_cioslowski, cmx_knowles, denominator_findings
from cmxlab.errors import InsufficientMomentsError
from cmxlab.models import H2Coefficients, h2_bk_hamiltonian
from cmxlab.moments import raw_moments_dense, raw_moments_pauli
from cmxlab.pauli import PauliSum
from cmxlab.statevector import basis_state

from conftest import cmx_closed_form, siam_caption_terms


def siam_sum(v=1.0, u=8.0):
    return PauliSum.from_label_terms(siam_caption_terms(u, u / 2, 0.0, u / 2, v))


def random_connected(rng, count=5, floor=0.1):
    """Random I_1..I_count with all dangerous denominators bounded away
    from zero, so the unguarded closed forms stay usable."""
    while True:
        ivals = [float(x) for x in rng.uniform(-2.0, 2.0, size=count)]
        if count >= 3 and abs(ivals[2]) < floor:
            continue
        if count >= 5 and abs(ivals[4] * ivals[2] - ivals[3] ** 2) < floor:
            continue
        return ivals


class TestCioslowski:
    def test_order_one_is_i1(self, rng):
        ivals = random_connected(rng, 1)
        result = cmx_cioslowski(ivals, 1)
        assert result.energy == ivals[0]
        assert result.energies == (ivals[0],)
        assert not result.singular_flag

    def test_order_two_closed_form(self, rng):
        for _ in range(100):
            ivals = random_connected(rng, 3)
            recursion = cmx_cioslowski(ivals, 2)
            closed = cmx_closed_form(ivals, 2)
            assert recursion.energy == pytest.approx(closed, rel=1e-12, abs=1e-12)
            assert recursion.energy == pytest.approx(
                ivals[0] - ivals[1] ** 2 / ivals[2], rel=1e-12
            )

    def test_order_three_closed_form(self, rng):
        for _ in range(100):
            ivals = random_connected(rng, 5)
            recursion = cmx_cioslowski(ivals, 3)
            closed = cmx_closed_form(ivals, 3)
            assert recursion.energy == pytest.approx(closed, rel=1e-12, abs=1e-12)

    def test_siam_cmx2(self):
        table = raw_moments_dense(siam_sum(1.0), basis_state("0110"), 3)
        result = cmx_cioslowski(table, 2)
        assert result.energy == pytest.approx(-4.5, abs=1e-12)

    def test_per_order_energies_nested(self, rng):
        ivals = random_connected(rng, 7)
        result = cmx_cioslowski(ivals, 4)
        assert result.energies[0] == ivals[0]
        assert result.energies[1] == pytest.approx(cmx_closed_form(ivals, 2), rel=1e-12)
        assert result.energies[2] == pytest.approx(cmx_closed_form(ivals, 3), rel=1e-12)
        assert len(result.energies) == 4

    def test_equals_knowles_at_orders_four_and_five(self, rng):
        for _ in range(100):
            ivals = random_connected(rng, 9)
            for order in (4, 5):
                cioslowski = cmx_cioslowski(ivals, order)
                knowles = cmx_knowles(ivals, order)
                if cioslowski.singular_flag or knowles.singular_flag:
                    continue
                assert cioslowski.energy == pytest.approx(knowles.energy, rel=1e-10, abs=1e-10)

    def test_eigenstate_singular_flag(self):
        # point-mass moments: I_2 = I_3 = 0, the 0/0 guard must trip
        result = cmx_cioslowski([(-1.7), 0.0, 0.0], 2)
        assert result.singular_flag
        assert result.energy == -1.7  # last finite partial sum, never NaN
        assert np.isfinite(result.energy)

    def test_insufficient_moments(self):
        with pytest.raises(InsufficientMomentsError):
            cmx_cioslowski([1.0, 2.0], 2)


class TestClosedForm:
    def test_i2_zero_gives_i1(self):
        assert cmx_closed_form([5.0, 0.0, 2.0], 2) == 5.0

    def test_rejects_other_orders(self):
        with pytest.raises(ValueError):
            cmx_closed_form([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], 4)

    def test_unguarded_division(self):
        with pytest.raises(ZeroDivisionError):
            cmx_closed_form([1.0, 1.0, 0.0], 2)


class TestKnowles:
    def test_order_one_is_i1(self):
        assert cmx_knowles([3.25], 1).energy == 3.25

    def test_order_two_equals_cioslowski(self, rng):
        for _ in range(50):
            ivals = random_connected(rng, 3)
            if abs(ivals[2]) <= 1e-10:
                continue
            knowles = cmx_knowles(ivals, 2)
            assert knowles.energy == pytest.approx(
                cmx_closed_form(ivals, 2), rel=1e-12, abs=1e-12
            )

    def test_identity_like_matrix(self):
        # I3 = I5 = 1, I4 = 0 makes A the 2x2 identity: E = I1 - I2^2 - I3^2
        ivals = [0.7, 0.4, 1.0, 0.0, 1.0]
        result = cmx_knowles(ivals, 3)
        assert result.energy == pytest.approx(0.7 - 0.4**2 - 1.0**2, abs=1e-12)

    def test_finite_across_siam_sweep_where_cioslowski_degrades(self):
        # high-order stability contrast on the hybridization sweep
        worst_cioslowski = 0.0
        for v in (0.1, 0.5, 1.0, 2.0, 3.0, 6.0, 10.0):
            table = raw_moments_dense(siam_sum(v), basis_state("0110"), 7)
            for order in (2, 3, 4):
                result = cmx_knowles(table, order)
                assert np.isfinite(result.energy)
                assert not result.singular_flag
            cio = cmx_cioslowski(table, 2)
            worst_cioslowski = max(worst_cioslowski, abs(cio.energy - (-4.0)))
        # the plain second-order expansion wanders tens of units off at V=10
        assert worst_cioslowski > 10.0

    def test_eigenstate_is_singular_above_first_order(self):
        ivals = [0.6, -1.1e-16, 7.8e-17, -7.5e-17, 1.1e-16]
        assert not cmx_knowles(ivals, 1).singular_flag
        for order in (2, 3):
            result = cmx_knowles(ivals, order)
            assert result.singular_flag
            assert result.energy == 0.6

    def test_condition_number_recorded(self):
        table = raw_moments_dense(siam_sum(1.0), basis_state("0110"), 5)
        result = cmx_knowles(table, 3)
        assert result.condition_number is not None
        assert result.condition_number > 0


class TestShiftCovariance:
    def test_energy_shifts_with_identity_offset(self):
        # H -> scale * (H + 1.5); every bound is the scale-1 bound in the
        # units of the scaled H.  Below unit scale the Pauli route's absolute
        # product prune zeroes the high moments (see CHANGES.md on
        # pauli.DEFAULT_PRUNE_THRESHOLD), so those scales use the dense route.
        h = siam_sum(1.0)
        state = basis_state("0110")
        base = raw_moments_pauli(h, state, 5)[0]
        for scale in (1.0, 250.0, 1e-3):
            shifted = PauliSum.from_label_terms(
                [*((scale * c, p.label) for p, c in h.items()), (1.5 * scale, "IIII")]
            )
            if scale >= 1.0:
                moved = raw_moments_pauli(shifted, state, 5)[0]
            else:
                moved = raw_moments_dense(shifted, state, 5)
            assert moved.connected[0] == pytest.approx(
                scale * (base.connected[0] + 1.5), abs=1e-10 * scale
            )
            for k in range(1, 5):
                assert moved.connected[k] == pytest.approx(
                    scale ** (k + 1) * base.connected[k], abs=1e-9 * scale ** (k + 1)
                )
            for order in (1, 2, 3):
                for solver in (cmx_cioslowski, cmx_knowles):
                    a = solver(base, order)
                    b = solver(moved, order)
                    assert b.energy - scale * a.energy == pytest.approx(
                        1.5 * scale, abs=1e-9 * scale
                    )
                    assert b.singular_flag == a.singular_flag


def findings(ivals, tolerance=SINGULARITY_TOLERANCE):
    """The denominator findings of Cioslowski CMX at the highest order the
    connected moments serve."""
    order = (len(ivals) + 1) // 2
    return denominator_findings(cmx_cioslowski(ivals, order).denominators, tolerance)


class TestSingularityReport:
    def test_tiny_i3_flags_second_order(self):
        affected = {f.affected for f in findings([1.0, 0.5, 1e-15, 0.2, 0.3])}
        assert any("cmx-cioslowski(2)" in a for a in affected)
        assert any("closed forms" in a for a in affected)

    def test_clean_moments_empty_report(self, rng):
        ivals = random_connected(rng, 5)
        assert findings(ivals, tolerance=1e-12) == ()

    def test_report_is_unit_free(self):
        ivals = [1.0, 0.5, 1e-15, 0.2, 0.3]
        scale = 1e3
        scaled = [scale * ivals[0] + 2.0] + [v * scale ** (k + 1) for k, v in enumerate(ivals) if k]
        base = findings(ivals)
        moved = findings(scaled)
        assert [(f.label, f.affected) for f in moved] == [(f.label, f.affected) for f in base]
        for a, b in zip(base, moved):
            assert b.value == pytest.approx(a.value, rel=1e-9, abs=1e-20)

    def test_report_reads_the_cioslowski_denominators(self, rng):
        # every denominator below the tolerance is a finding, in order,
        # naming the orders it poisons; only S[3,1] poisons the closed forms
        ivals = random_connected(rng, 7)
        denominators = cmx_cioslowski(ivals, 4).denominators
        report = denominator_findings(denominators, tolerance=np.inf)
        assert [(f.label, f.value) for f in report] == list(denominators)
        assert [f.affected for f in report] == [
            "cmx-cioslowski(2), cmx-knowles(2), cmx closed forms (2, 3)",
            "cmx-cioslowski(3), cmx-knowles(3)",
            "cmx-cioslowski(4), cmx-knowles(4)",
        ]
        assert denominator_findings(denominators, tolerance=0.0) == ()

    def test_stretched_two_qubit_model_shrinks_i3(self):
        # shrinking the diagonal gap of the {|01>,|10>} block mixes the trial
        # toward equal weights, which drives the third cumulant to zero
        values = []
        for gap in (2.0, 1.0, 0.5, 0.1):
            c = H2Coefficients(0.0, gap / 2.0, -gap / 2.0, 0.0, 0.1, 0.1)
            table = raw_moments_dense(h2_bk_hamiltonian(c), basis_state("01"), 3)
            values.append(abs(table.connected[2]))
        assert values == sorted(values, reverse=True)
        table = raw_moments_dense(
            h2_bk_hamiltonian(H2Coefficients(0.0, 0.0, 0.0, 0.0, 0.1, 0.1)),
            basis_state("01"),
            3,
        )
        assert any("cmx-cioslowski(2)" in f.affected for f in findings(table.connected))
