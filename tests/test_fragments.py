"""Unit tests for cut specification and circuit bipartitioning."""

import pytest

from repro.circuits import Circuit, ghz_circuit
from repro.cutting import CutPoint, CutSpec, bipartition, find_cuts
from repro.exceptions import CutError

from tests.helpers import two_block_circuit


class TestCutSpec:
    def test_valid(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        spec.validate(qc)

    def test_wire_out_of_range(self):
        qc = Circuit(2).h(0).cx(0, 1)
        with pytest.raises(CutError):
            CutSpec((CutPoint(5, 0),)).validate(qc)

    def test_gate_not_on_wire(self):
        qc = Circuit(2).h(0).cx(0, 1)
        with pytest.raises(CutError):
            CutSpec((CutPoint(1, 0),)).validate(qc)  # h(0) doesn't touch wire 1

    def test_duplicate_wires_rejected(self):
        with pytest.raises(CutError):
            CutSpec((CutPoint(1, 0), CutPoint(1, 2)))

    def test_empty_rejected(self):
        with pytest.raises(CutError):
            CutSpec(())

    def test_last_instruction_on_wire_rejected_eagerly(self):
        # regression: validate() itself must enforce the documented "must
        # not be the last instruction on that wire" constraint instead of
        # deferring the failure to CircuitDag.downstream_of_cut
        qc = Circuit(2).h(0).cx(0, 1)
        with pytest.raises(CutError, match="severs nothing"):
            CutPoint(1, 1).validate(qc)
        # the same instruction is cuttable on wire 0 (h(0) follows nothing)
        with pytest.raises(CutError, match="severs nothing"):
            CutPoint(0, 1).validate(qc)
        CutPoint(0, 0).validate(qc)


class TestBipartition:
    def test_simple_structure(self, simple_cut_pair):
        _, _, pair = simple_cut_pair
        assert pair.n_up == 2 and pair.n_down == 2
        assert pair.up_out_original == [0]
        assert pair.down_out_original == [1, 2]
        assert pair.num_cuts == 1

    def test_cut_after_last_gate_rejected(self):
        qc = Circuit(2).h(0).cx(0, 1)
        # instruction 1 is the last gate on wire 1: severs nothing
        with pytest.raises(CutError):
            bipartition(qc, CutSpec((CutPoint(1, 1),)))

    def test_wire_closure_resolves_side_wires(self):
        """Cutting only wire 1 pulls wires 0 and 2 wholly downstream.

        The closure leaves an extreme but valid bipartition: the upstream
        fragment is just the cut wire's preparation and has *no* output
        qubits.  Reconstruction must still be exact.
        """
        import numpy as np

        from repro.sim import simulate_statevector

        from tests.helpers import exact_pair_probs

        qc = Circuit(3)
        qc.h(0).h(1)
        qc.cx(0, 2).cx(1, 2)
        pair = bipartition(qc, CutSpec((CutPoint(1, 1),)))
        assert pair.n_up_out == 0
        assert sorted(pair.down_out_original) == [0, 1, 2]
        p = exact_pair_probs(qc, CutSpec((CutPoint(1, 1),)))
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_anchor_downstream_of_other_cut_rejected(self):
        qc = Circuit(2)
        qc.h(0)          # 0
        qc.cx(0, 1)      # 1
        qc.ry(0.3, 1)    # 2
        qc.cx(1, 0)      # 3  (wire 1 feeds back onto wire 0)
        qc.cx(0, 1)      # 4
        # cut wire 0 after h(0): descendants = {1,2,3,4}; a second cut on
        # wire 1 anchored at instruction 2 sits inside those descendants.
        with pytest.raises(CutError):
            bipartition(
                qc, CutSpec((CutPoint(0, 0), CutPoint(1, 2)))
            )

    def test_untouched_qubits_go_downstream(self):
        qc = Circuit(4, name="idle")
        qc.h(0).cx(0, 1)
        qc.cx(1, 2)  # qubit 3 untouched
        pair = bipartition(qc, CutSpec((CutPoint(1, 1),)))
        assert 3 in pair.down_out_original

    def test_wire_integrity_pulls_independent_gates_downstream(self):
        qc = Circuit(3)
        qc.h(0).cx(0, 1)      # upstream block
        qc.x(2)               # independent gate on downstream-only wire
        qc.cx(1, 2)           # downstream couples wires 1,2
        pair = bipartition(qc, CutSpec((CutPoint(1, 1),)))
        assert len(pair.downstream) == 2  # x(2) and cx(1,2)

    def test_output_order_covers_register(self, simple_cut_pair):
        _, _, pair = simple_cut_pair
        assert sorted(pair.output_order()) == [0, 1, 2]

    def test_multi_cut_structure(self):
        qc, spec = two_block_circuit(5, [0, 1, 2], [1, 2, 3, 4], seed=0)
        pair = bipartition(qc, spec)
        assert pair.num_cuts == 2
        assert sorted(pair.output_order()) == [0, 1, 2, 3, 4]

    def test_remapped_instructions_preserved(self, simple_cut_pair):
        qc, _, pair = simple_cut_pair
        total_ops = len(pair.upstream) + len(pair.downstream)
        assert total_ops == len(qc)

    def test_describe(self, simple_cut_pair):
        _, _, pair = simple_cut_pair
        assert "K=1" in pair.describe()


class TestFindCuts:
    def test_finds_single_cut(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        found = find_cuts(qc, max_fragment_qubits=2)
        assert found.num_cuts == 1
        pair = bipartition(qc, found)
        assert max(pair.n_up, pair.n_down) <= 2

    def test_ghz_is_cuttable(self):
        qc = ghz_circuit(4)
        spec = find_cuts(qc, max_fragment_qubits=3)
        pair = bipartition(qc, spec)
        assert max(pair.n_up, pair.n_down) <= 3

    def test_impossible_budget_raises(self):
        qc = ghz_circuit(3)
        with pytest.raises(CutError):
            find_cuts(qc, max_fragment_qubits=1)

    def test_prefers_fewer_cuts(self):
        qc, _ = two_block_circuit(5, [0, 1, 2], [2, 3, 4], seed=1)
        spec = find_cuts(qc, max_fragment_qubits=4)
        assert spec.num_cuts == 1
