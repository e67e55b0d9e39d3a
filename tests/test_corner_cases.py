"""Corner-case coverage across modules: report formatting, shot edge
cases, observable conversions, drawer symbols, pipeline guards."""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.circuits import Circuit, draw
from repro.core import cost_report, golden_ansatz, predicted_speedup
from repro.cutting import CutPoint, CutSpec, bipartition
from repro.harness.report import format_table
from repro.observables import DiagonalObservable, PauliSumObservable
from repro.sim import simulate_statevector

from tests.helpers import exact_pair_probs


class TestReportFormatting:
    def test_scientific_notation_for_extremes(self):
        out = format_table([{"v": 1234567.0}, {"v": 0.0000012}])
        assert "e+06" in out or "1.235e" in out
        assert "e-06" in out

    def test_zero_renders_compactly(self):
        assert "0" in format_table([{"v": 0.0}])

    def test_missing_columns_blank(self):
        out = format_table([{"a": 1}, {"b": 2}], columns=["a", "b"])
        lines = out.splitlines()
        assert len(lines) == 4

    def test_column_subset(self):
        out = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in out.splitlines()[0]


class TestDrawer:
    def test_symmetric_gate_symbols(self):
        art = draw(Circuit(2).cz(0, 1).swap(0, 1))
        assert "CZ" in art
        assert "x" in art

    def test_parametric_gate_label(self):
        art = draw(Circuit(1).rx(0.5, 0))
        assert "RX" in art

    def test_width_truncation(self):
        qc = Circuit(1)
        for _ in range(200):
            qc.h(0)
        art = draw(qc, max_width=60)
        assert all(len(line) <= 60 for line in art.splitlines())


class TestObservableConversions:
    def test_pauli_sum_as_diagonal_observable(self):
        h = PauliSumObservable.from_list([(2.0, "ZI"), (1.0, "IZ")])
        obs = h.as_diagonal_observable()
        assert isinstance(obs, DiagonalObservable)
        np.testing.assert_allclose(obs.diagonal, h.diagonal())

    def test_parity_observable_on_uniform_state(self):
        obs = DiagonalObservable.parity(3)
        uniform = np.full(8, 1 / 8)
        assert obs.expectation(uniform) == pytest.approx(0.0)


class TestCostEdgeCases:
    def test_zero_golden_map_is_standard(self):
        assert cost_report(2, {}).reconstruction_rows == 16

    def test_speedup_without_golden_is_one(self):
        assert predicted_speedup(2, {}) == pytest.approx(1.0)

    def test_cost_report_row_dict(self):
        row = cost_report(1, {0: "Y"}).as_row()
        assert row["variants"] == 6 and row["K"] == 1


class TestDegenerateCuts:
    def test_minimal_two_qubit_circuit(self):
        """Smallest possible cut: 2 qubits, 1 cut, 1 gate per side."""
        qc = Circuit(2).ry(0.8, 0).cx(0, 1).rx(0.3, 0)
        # wire 0: ry (up), cx, rx — cut after ry
        p = exact_pair_probs(qc, CutSpec((CutPoint(0, 0),)))
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)

    def test_upstream_single_wire(self):
        """Upstream fragment is exactly the cut wire (one qubit)."""
        qc = Circuit(3).h(0)
        qc.cx(0, 1).cx(1, 2)
        pair = bipartition(qc, CutSpec((CutPoint(0, 0),)))
        assert pair.n_up == 1 and pair.n_up_out == 0
        p = exact_pair_probs(qc, CutSpec((CutPoint(0, 0),)))
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-9)


class TestPipelineGuards:
    def test_golden_map_validated_eagerly(self):
        from repro.exceptions import CutError

        spec = golden_ansatz(5, seed=1)
        with pytest.raises(CutError):
            from repro.core import cut_and_run

            cut_and_run(
                spec.circuit, IdealBackend(), cuts=spec.cut_spec,
                golden="known", golden_map={7: "Y"},
            )

    def test_detection_list_only_in_detect_mode(self):
        from repro.core import cut_and_run

        spec = golden_ansatz(5, seed=2)
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=500, golden="off", seed=0,
        )
        assert r.detection == []

    def test_bases_attribute_reflects_mode(self):
        from repro.core import cut_and_run

        spec = golden_ansatz(5, seed=3)
        std = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=500, golden="off", seed=0,
        )
        gld = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=500, golden="known", golden_map={0: "Y"}, seed=0,
        )
        assert std.bases is None
        assert gld.bases == [("I", "X", "Z")]
