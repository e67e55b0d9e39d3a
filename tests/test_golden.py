"""Tests for golden cutting points: ansatz guarantees, analytic finder,
and the central theorem — reduced reconstruction loses nothing.
"""

import numpy as np
import pytest

from repro.circuits import Circuit
from repro.core import golden_ansatz, three_qubit_example
from repro.core.golden import tree_definition1_deviation
from repro.cutting import bipartition
from repro.exceptions import CutError, DetectionError
from repro.sim import simulate_statevector

from tests.helpers import (
    exact_pair_probs,
    pair_tree,
    root_golden_bases,
    root_pilot_data,
    two_block_circuit,
)


def _is_golden(qc, spec, cut, basis):
    return basis in root_golden_bases(pair_tree(qc, spec))[cut]


def _deviation(qc, spec, cut, basis, settings=None):
    data = root_pilot_data(pair_tree(qc, spec), settings=settings)
    return tree_definition1_deviation(data, 0, cut, basis)


class TestGoldenAnsatz:
    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_designed_basis_is_golden(self, basis, seed):
        spec = golden_ansatz(5, depth=3, golden_basis=basis, seed=seed)
        assert _is_golden(spec.circuit, spec.cut_spec, 0, basis)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_widths(self, n):
        spec = golden_ansatz(n, depth=2, seed=n)
        pair = bipartition(spec.circuit, spec.cut_spec)
        assert _is_golden(spec.circuit, spec.cut_spec, 0, "Y")
        assert sorted(pair.output_order()) == list(range(n))

    def test_fragment_shapes_match_paper(self):
        """5q -> 3+3 fragments, 7q -> 4+4 (paper §III)."""
        for n, frag in ((5, 3), (7, 4)):
            spec = golden_ansatz(n, depth=3, seed=1)
            pair = bipartition(spec.circuit, spec.cut_spec)
            assert pair.n_up == frag and pair.n_down == frag

    def test_too_small_rejected(self):
        with pytest.raises(CutError):
            golden_ansatz(2)

    def test_invalid_basis_rejected(self):
        with pytest.raises(CutError):
            golden_ansatz(5, golden_basis="I")

    def test_without_rx_layer(self):
        spec = golden_ansatz(5, seed=3, rx_layer=False)
        assert _is_golden(spec.circuit, spec.cut_spec, 0, "Y")

    def test_three_qubit_example_golden(self):
        spec = three_qubit_example(seed=4, golden=True)
        assert _is_golden(spec.circuit, spec.cut_spec, 0, "Y")

    def test_reproducible(self):
        a = golden_ansatz(5, seed=9).circuit
        b = golden_ansatz(5, seed=9).circuit
        assert a == b


class TestDefinitionOne:
    def test_deviation_zero_for_golden(self):
        spec = golden_ansatz(5, seed=2)
        assert _deviation(spec.circuit, spec.cut_spec, 0, "Y") < 1e-10

    def test_deviation_positive_for_regular(self):
        """A generic (complex) upstream block is not Y-golden."""
        qc, spec = two_block_circuit(3, [0, 1], [1, 2], seed=17)
        devs = {b: _deviation(qc, spec, 0, b) for b in ("X", "Y", "Z")}
        # at least one basis must carry information for a generic circuit
        assert max(devs.values()) > 1e-3

    def test_invalid_basis(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        with pytest.raises(DetectionError):
            _deviation(qc, spec, 0, "I")

    def test_invalid_cut_index(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        with pytest.raises(DetectionError):
            _deviation(qc, spec, 3, "Y")

    def test_missing_setting(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        with pytest.raises(DetectionError):
            _deviation(qc, spec, 0, "Y", settings=[("Z",)])


class TestAnalyticFinder:
    def test_finds_only_real_golden_bases(self):
        spec = golden_ansatz(5, depth=3, golden_basis="Y", seed=11)
        found = root_golden_bases(pair_tree(spec.circuit, spec.cut_spec))
        assert "Y" in found[0]

    def test_multi_cut_mixed(self):
        """Two cuts: both are Y-golden for a real upstream block."""
        qc, spec = two_block_circuit(
            5, [0, 1, 2], [1, 2, 3, 4], seed=4, real_upstream=True
        )
        found = root_golden_bases(pair_tree(qc, spec))
        assert "Y" in found[0] and "Y" in found[1]

    def test_bell_correlated_cuts_are_not_y_golden(self):
        """The multi-cut subtlety: ⟨Y⊗Y⟩ of a real state is real and can
        be nonzero (Bell pair: −1), so Y is *not* golden at either cut even
        though the upstream circuit is real.  Only rows with an odd number
        of Ys vanish structurally; the pointwise Definition-1 finder must
        therefore reject Y here."""
        from repro.circuits import Circuit
        from repro.cutting import CutPoint, CutSpec

        qc = Circuit(4)
        qc.h(1).cx(1, 2)        # Bell pair spanning the two cut wires
        qc.ry(0.4, 0).cx(0, 1)  # upstream out qubit
        qc.cx(1, 3).cx(2, 3)    # downstream
        spec = CutSpec((CutPoint(1, 3), CutPoint(2, 1)))
        found = root_golden_bases(pair_tree(qc, spec))
        assert "Y" not in found[0] and "Y" not in found[1]
        # single-cut restriction of the same state *is* Y-golden: the odd-Y
        # expectation ψᵀ(D ⊗ Y)ψ vanishes for real ψ
        dev = _deviation(qc, spec, 0, "Y")
        assert dev > 0.1  # driven by the (Y, Y) measurement context

    def test_regular_cut_can_be_empty(self):
        # deep complex upstream: generically nothing is golden (shallow
        # draws from the diagonal-heavy pool often leave the cut qubit in a
        # Z eigenstate, which *is* X/Y-golden — a real effect, so we use
        # depth 6 to land on generic states)
        for seed in range(10):
            qc, spec = two_block_circuit(
                3, [0, 1], [1, 2], depth=6, seed=100 + seed
            )
            found = root_golden_bases(pair_tree(qc, spec))
            if not found[0]:
                return  # found a generic regular cut
        pytest.fail("every random circuit accidentally golden — improbable")

    def test_shallow_diagonal_circuit_is_xy_golden(self):
        """Documenting the diagonal-pool effect: a cut qubit left in |0⟩
        carries no X/Y information — both bases are genuinely golden."""
        from repro.circuits import Circuit
        from repro.cutting import CutPoint, CutSpec

        qc = Circuit(2)
        qc.rz(0.8, 0).t(0)  # cut wire stays |0>
        qc.cx(0, 1)
        found = root_golden_bases(pair_tree(qc, CutSpec((CutPoint(0, 1),))))
        assert set(found[0]) == {"X", "Y"}


class TestGoldenReconstructionExactness:
    """The core claim: neglecting a golden basis does not change the result."""

    @pytest.mark.parametrize("basis", ["X", "Y", "Z"])
    def test_reduced_equals_truth(self, basis):
        spec = golden_ansatz(5, depth=3, golden_basis=basis, seed=23)
        p = exact_pair_probs(spec.circuit, spec.cut_spec, golden={0: basis})
        truth = simulate_statevector(spec.circuit).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_two_golden_cuts(self):
        qc, spec = two_block_circuit(
            5, [0, 1, 2], [1, 2, 3, 4], seed=6, real_upstream=True
        )
        p = exact_pair_probs(qc, spec, golden={0: "Y", 1: "Y"})
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_mixed_golden_regular(self):
        """One golden + one regular cut in the same bipartition."""
        qc, spec = two_block_circuit(
            5, [0, 1, 2], [1, 2, 3, 4], seed=8, real_upstream=True
        )
        p = exact_pair_probs(qc, spec, golden={0: "Y"})
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_wrongly_neglecting_nongolden_breaks(self):
        """Sanity: dropping a *non*-golden basis corrupts the answer."""
        for seed in range(6):
            qc, spec = two_block_circuit(
                3, [0, 1], [1, 2], depth=6, seed=200 + seed
            )
            if _deviation(qc, spec, 0, "Y") < 1e-3:
                continue  # basis accidentally (near) golden; pick another
            p = exact_pair_probs(qc, spec, golden={0: "Y"})
            truth = simulate_statevector(qc).probabilities()
            assert not np.allclose(p, truth, atol=1e-6)
            return
        pytest.fail("no genuinely non-golden circuit found")
