"""Units: every estimator maps E(H) to c E(H) + d for the Hamiltonian cH + d,
with the same singular and pseudo-inverse flags."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmxlab.cmx import cmx_cioslowski, cmx_knowles
from cmxlab.methods import MethodSpec, evaluate_method
from cmxlab.models import siam_fci_energy
from cmxlab.moments import MomentTable, raw_moments_dense
from cmxlab.pauli import PauliSum
from cmxlab.pds import solve_pds
from cmxlab.statevector import basis_state

from conftest import siam_caption_terms

METHODS = [
    MethodSpec(name, order)
    for name in ("cmx-cioslowski", "cmx-knowles", "pds")
    for order in (1, 2, 3, 4)
]


def siam_table(v: float, scale: float = 1.0, shift: float = 0.0):
    """Raw moments K_0..K_7 of scale * H_SIAM(U=8, V) + shift on |0110>."""
    terms = [(scale * c, label) for c, label in siam_caption_terms(8.0, 4.0, 0.0, 4.0, v)]
    h = PauliSum.from_label_terms(terms + [(shift, "IIII")])
    return raw_moments_dense(h, basis_state("0110"), 7)


def log_uniform(low: float, high: float):
    return st.floats(math.log10(low), math.log10(high)).map(lambda x: 10.0**x)


@given(
    v=log_uniform(0.3, 20.0),
    scale=log_uniform(1e-4, 1e4),
    u=st.floats(-5.0, 5.0),
)
@settings(max_examples=60, deadline=None)
def test_scaled_and_shifted_hamiltonian(v, scale, u):
    shift = scale * u
    base = siam_table(v)
    moved = siam_table(v, scale, shift)
    for spec in METHODS:
        a = evaluate_method(spec, base)
        b = evaluate_method(spec, moved)
        assert (b.singular_flag, b.used_pseudo_inverse) == (
            a.singular_flag,
            a.used_pseudo_inverse,
        ), spec
        assert abs(b.energy - (scale * a.energy + shift)) <= 1e-8 * scale * max(
            1.0, abs(a.energy)
        ), spec


class TestBaselineScaleFailures:
    """Cases that depended on the units of H before the solves were unit-free."""

    def test_cmx2_at_scale_100(self):
        table = siam_table(1.0, 100.0)
        for solver in (cmx_cioslowski, cmx_knowles):
            result = solver(table, 2)
            assert not result.singular_flag
            assert result.energy == pytest.approx(-450.0, rel=1e-12)

    def test_pds3_at_scale_100_reaches_fci(self):
        result = solve_pds(siam_table(1.0, 100.0), 3)
        assert result.ground_energy == pytest.approx(100.0 * siam_fci_energy(8.0, 1.0), rel=1e-10)

    def test_cioslowski3_at_scale_one_hundredth(self):
        table = siam_table(1.0, 1e-2)
        result = cmx_cioslowski(table, 3)
        assert not result.singular_flag
        unscaled = cmx_cioslowski(siam_table(1.0), 3)
        assert result.energy == pytest.approx(1e-2 * unscaled.energy, rel=1e-10)


class TestCioslowskiEqualsKnowles:
    def test_siam_order_four(self):
        for v in (0.1, 0.5, 1.0, 3.0, 10.0):
            table = siam_table(v)
            assert cmx_cioslowski(table, 4).energy == pytest.approx(
                cmx_knowles(table, 4).energy, rel=1e-10
            )

    def test_cioslowski_singular_where_knowles_stays_finite(self):
        # at weak hybridization S[3,3] vanishes on the unit-free moments
        table = siam_table(0.06)
        cioslowski = cmx_cioslowski(table, 4)
        knowles = cmx_knowles(table, 4)
        assert cioslowski.singular_flag
        assert np.isfinite(cioslowski.energy)
        assert not knowles.singular_flag
        assert np.isfinite(knowles.energy)


class TestComplexRootPolicy:
    def test_near_real_pair_is_dropped_at_every_scale(self):
        # nodes -1 and 0.3 +- 8e-5 i with complex-conjugate weights give real
        # moments whose PDS(3) roots are those nodes; at c = 1e-4 the pair's
        # imaginary part is 8e-9 in the units of H, below the tolerance
        nodes = np.array([-1.0, 0.3 + 8e-5j, 0.3 - 8e-5j])
        weights = np.array([0.5, 0.25 + 0.1j, 0.25 - 0.1j])
        for scale in (1e-4, 1.0, 1e4):
            for shift in (0.0, 0.5 * scale):
                mapped = scale * nodes + shift
                raw = [1.0] + [float((weights * mapped**k).sum().real) for k in range(1, 6)]
                result = solve_pds(raw, 3)
                assert result.real_roots_sorted == pytest.approx(
                    [shift - scale], abs=1e-12 * scale
                )
                assert len(result.complex_roots) == 2
                for root in result.complex_roots:
                    assert abs(root.imag) == pytest.approx(8e-5 * scale, rel=1e-3)


class TestEigenstateFloor:
    """|I_2| <= 1e-10 K_1^2 is an eigenstate: K_2 - K_1^2 cancels, so the
    floor is relative to K_1, and a large enough offset turns a small real
    spread into an eigenstate."""

    @staticmethod
    def two_node_table(shift: float) -> MomentTable:
        # nodes shift - 0.3 and shift + 0.4, weights 0.6 and 0.4: I_2 = 0.294
        raw = [0.6 * (shift - 0.3) ** k + 0.4 * (shift + 0.4) ** k for k in range(1, 4)]
        return MomentTable((1.0, *raw))

    def test_offset_of_one_is_solved(self):
        table = self.two_node_table(1.0)
        for name in ("cmx-cioslowski", "cmx-knowles", "pds"):
            value = evaluate_method(MethodSpec(name, 2), table)
            assert not value.singular_flag and not value.used_pseudo_inverse, name
        assert evaluate_method(MethodSpec("pds", 2), table).energy == pytest.approx(0.7)

    def test_offset_of_a_million_is_an_eigenstate(self):
        table = self.two_node_table(1e6)
        mean = table.raw[1]
        for name in ("cmx-cioslowski", "cmx-knowles", "pds"):
            value = evaluate_method(MethodSpec(name, 2), table)
            assert value.energy == mean, name
        assert evaluate_method(MethodSpec("cmx-cioslowski", 2), table).singular_flag
        assert evaluate_method(MethodSpec("cmx-knowles", 2), table).singular_flag
        assert evaluate_method(MethodSpec("pds", 2), table).used_pseudo_inverse
