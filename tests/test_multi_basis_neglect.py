"""Tests for neglecting *multiple* basis elements at one cut.

Beyond the paper's single-basis golden points: a cut qubit left in a
computational basis state is both X- and Y-golden (4 → 2 terms), and a cut
qubit in a product state with the rest of the fragment can have all three
Paulis negligible (the cut degenerates to its ``I`` marginal).
"""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.circuits import Circuit
from repro.core import cut_and_run, normalize_golden_map
from repro.core.costs import cost_report
from repro.core.neglect import (
    reduced_bases,
    reduced_init_tuples,
    reduced_setting_tuples,
)
from repro.cutting import CutPoint, CutSpec
from repro.exceptions import CutError
from repro.metrics import total_variation
from repro.sim import simulate_statevector

from tests.helpers import exact_pair_probs, pair_tree, root_golden_bases


def _xy_golden_circuit():
    """Cut qubit stays |0⟩-diagonal upstream: X and Y are both golden."""
    qc = Circuit(3, name="xy_golden")
    qc.ry(0.9, 0)
    qc.cz(0, 1)        # diagonal coupling: wire 1 stays in a Z eigenstate
    qc.cx(1, 2).ry(0.4, 2).cx(1, 2)
    spec = CutSpec((CutPoint(1, 1),))
    return qc, spec


def _product_zero_circuit():
    """Cut qubit is |0⟩ and unentangled: X and Y golden, Z is not.

    (Z-golden would need ⟨Z⟩ = 0 conditioned on every output — i.e. a
    conditionally maximally-mixed cut qubit, impossible for a pure
    fragment whose other qubits are all measured.  |0⟩ has ⟨Z⟩ = +1.)
    """
    qc = Circuit(3, name="product_zero")
    qc.ry(1.1, 0)
    qc.id(1)
    qc.cx(1, 2).rx(0.7, 2)
    spec = CutSpec((CutPoint(1, 1),))
    return qc, spec


class TestNormalize:
    def test_string_and_sequence(self):
        assert normalize_golden_map(2, {0: "Y", 1: ("X", "Y")}) == {
            0: ("Y",),
            1: ("X", "Y"),
        }

    def test_dedupes(self):
        assert normalize_golden_map(1, {0: ("Y", "Y")}) == {0: ("Y",)}

    def test_rejects_invalid(self):
        with pytest.raises(CutError):
            normalize_golden_map(1, {0: ()})
        with pytest.raises(CutError):
            normalize_golden_map(1, {0: ("I",)})
        with pytest.raises(CutError):
            normalize_golden_map(1, {1: "Y"})


class TestReducedSets:
    def test_two_bases_dropped(self):
        golden = {0: ("X", "Y")}
        assert reduced_bases(1, golden) == [("I", "Z")]
        assert reduced_setting_tuples(1, golden) == [("Z",)]
        assert len(reduced_init_tuples(1, golden)) == 2  # Z+ Z-

    def test_all_bases_dropped_keeps_marginal_path(self):
        golden = {0: ("X", "Y", "Z")}
        assert reduced_bases(1, golden) == [("I",)]
        # one setting survives purely for the I-row marginal
        assert reduced_setting_tuples(1, golden) == [("Z",)]
        assert len(reduced_init_tuples(1, golden)) == 2

    def test_cost_report_multi(self):
        rep = cost_report(1, {0: ("X", "Y")}, shots_per_variant=1000)
        assert rep.reconstruction_rows == 2
        assert rep.num_variants == 1 + 2
        rep_all = cost_report(1, {0: ("X", "Y", "Z")})
        assert rep_all.reconstruction_rows == 1


class TestExactness:
    def test_xy_golden_detected(self):
        qc, spec = _xy_golden_circuit()
        found = root_golden_bases(pair_tree(qc, spec))
        assert set(found[0]) >= {"X", "Y"}

    def test_xy_reduced_reconstruction_exact(self):
        qc, spec = _xy_golden_circuit()
        p = exact_pair_probs(qc, spec, golden={0: ("X", "Y")})
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_product_zero_cut_is_exactly_xy_golden(self):
        """The finder reports exactly {X, Y}: Z carries the population bit."""
        qc, spec = _product_zero_circuit()
        found = root_golden_bases(pair_tree(qc, spec))
        assert set(found[0]) == {"X", "Y"}
        p = exact_pair_probs(qc, spec, golden={0: tuple(found[0])})
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)


class TestPipelineExploitAll:
    def test_analytic_exploit_all(self):
        qc, spec = _xy_golden_circuit()
        truth = simulate_statevector(qc).probabilities()
        r = cut_and_run(
            qc, IdealBackend(), cuts=spec, shots=30_000,
            golden="analytic", exploit_all=True, seed=0,
        )
        assert set(r.golden_used[0]) >= {"X", "Y"}
        assert r.costs.num_variants <= 3
        assert total_variation(r.probabilities, truth) < 0.03

    def test_known_mode_accepts_tuples(self):
        qc, spec = _xy_golden_circuit()
        truth = simulate_statevector(qc).probabilities()
        r = cut_and_run(
            qc, IdealBackend(), cuts=spec, shots=30_000,
            golden="known", golden_map={0: ("X", "Y")}, seed=1,
        )
        assert r.costs.reconstruction_rows == 2
        assert total_variation(r.probabilities, truth) < 0.03

    def test_detect_exploit_all(self):
        qc, spec = _xy_golden_circuit()
        truth = simulate_statevector(qc).probabilities()
        r = cut_and_run(
            qc, IdealBackend(), cuts=spec, shots=30_000,
            golden="detect", exploit_all=True, pilot_shots=10_000, seed=2,
        )
        assert "X" in r.golden_used.get(0, ()) and "Y" in r.golden_used.get(0, ())
        assert total_variation(r.probabilities, truth) < 0.03

    def test_default_mode_still_single_basis(self):
        qc, spec = _xy_golden_circuit()
        r = cut_and_run(
            qc, IdealBackend(), cuts=spec, shots=5_000,
            golden="analytic", seed=3,
        )
        assert isinstance(r.golden_used[0], str)
