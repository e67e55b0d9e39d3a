"""Tests for the cost model (paper §II-B/§III-B) and the one-call pipeline."""

import numpy as np
import pytest

from repro.backends import IdealBackend, fake_5q_device
from repro.core import cost_report, cut_and_run, golden_ansatz, predicted_speedup
from repro.core.neglect import (
    reduced_bases,
    reduced_init_tuples,
    reduced_setting_tuples,
)
from repro.cutting import bipartition
from repro.exceptions import CutError
from repro.metrics import total_variation
from repro.sim import simulate_statevector


class TestCostModel:
    def test_standard_counts(self):
        for K in (1, 2, 3):
            r = cost_report(K, None, 1000)
            assert r.reconstruction_rows == 4**K
            assert r.upstream_settings == 3**K
            assert r.downstream_inits == 6**K

    def test_paper_headline_numbers(self):
        """One Y-golden cut: 9 -> 6 variants; 4.5e5 -> 3.0e5 over 50 trials."""
        std = cost_report(1, None, 1000)
        gld = cost_report(1, {0: "Y"}, 1000)
        assert std.num_variants == 9 and gld.num_variants == 6
        assert 50 * std.total_executions == 450_000
        assert 50 * gld.total_executions == 300_000
        assert std.reconstruction_rows == 4 and gld.reconstruction_rows == 3

    def test_formula_4kr_3kg(self):
        for K in (2, 3):
            for kg in range(K + 1):
                golden = {k: "Y" for k in range(kg)}
                r = cost_report(K, golden or None)
                assert r.reconstruction_rows == 4 ** (K - kg) * 3**kg
                assert r.downstream_inits == 6 ** (K - kg) * 4**kg
                assert r.upstream_settings == 3 ** (K - kg) * 2**kg

    def test_z_golden_asymmetry(self):
        """Z-golden saves terms and upstream settings but no downstream runs."""
        r = cost_report(1, {0: "Z"})
        assert r.reconstruction_rows == 3
        assert r.upstream_settings == 2
        assert r.downstream_inits == 6

    def test_predicted_speedup_matches_paper(self):
        assert predicted_speedup(1, {0: "Y"}) == pytest.approx(1.5)
        from repro.backends import DeviceTimingModel

        s = predicted_speedup(1, {0: "Y"}, timing=DeviceTimingModel())
        assert s == pytest.approx(1.5)

    def test_reduced_sets_validation(self):
        with pytest.raises(CutError):
            reduced_bases(1, {2: "Y"})
        with pytest.raises(CutError):
            reduced_setting_tuples(1, {0: "I"})
        with pytest.raises(CutError):
            reduced_init_tuples(1, {0: "Q"})


class TestPipeline:
    @pytest.fixture(scope="class")
    def spec(self):
        return golden_ansatz(5, depth=3, golden_basis="Y", seed=55)

    @pytest.fixture(scope="class")
    def truth(self, spec):
        return simulate_statevector(spec.circuit).probabilities()

    def test_off_mode(self, spec, truth):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=30_000, golden="off", seed=1,
        )
        assert r.golden_used == {}
        assert r.costs.num_variants == 9
        assert total_variation(r.probabilities, truth) < 0.03

    def test_known_mode(self, spec, truth):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=30_000, golden="known", golden_map={0: "Y"}, seed=1,
        )
        assert r.costs.num_variants == 6
        assert total_variation(r.probabilities, truth) < 0.03

    def test_analytic_mode(self, spec, truth):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=30_000, golden="analytic", seed=1,
        )
        assert r.golden_used == {0: "Y"}
        assert total_variation(r.probabilities, truth) < 0.03

    def test_detect_mode(self, spec, truth):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=30_000, golden="detect", seed=1, pilot_shots=5_000,
        )
        assert r.golden_used == {0: "Y"}
        assert len(r.detection) == 3
        assert total_variation(r.probabilities, truth) < 0.03

    def test_known_requires_map(self, spec):
        with pytest.raises(CutError):
            cut_and_run(
                spec.circuit, IdealBackend(), cuts=spec.cut_spec, golden="known"
            )

    def test_invalid_mode(self, spec):
        with pytest.raises(CutError):
            cut_and_run(
                spec.circuit, IdealBackend(), cuts=spec.cut_spec, golden="maybe"
            )

    def test_auto_cut_search(self, truth, spec):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=None, shots=30_000,
            golden="off", seed=2, max_fragment_qubits=4,
        )
        assert max(r.pair.n_up, r.pair.n_down) <= 4
        assert total_variation(r.probabilities, truth) < 0.05

    def test_on_fake_hardware_charges_time(self, spec):
        dev = fake_5q_device()
        r = cut_and_run(
            spec.circuit, dev, cuts=spec.cut_spec, shots=1000,
            golden="known", golden_map={0: "Y"}, seed=0,
        )
        assert r.device_seconds > 0
        assert np.isclose(r.device_seconds, dev.clock.now)

    def test_golden_time_saving_on_hardware(self, spec):
        dev_std = fake_5q_device()
        r_std = cut_and_run(
            spec.circuit, dev_std, cuts=spec.cut_spec, shots=1000,
            golden="off", seed=0,
        )
        dev_gld = fake_5q_device()
        r_gld = cut_and_run(
            spec.circuit, dev_gld, cuts=spec.cut_spec, shots=1000,
            golden="known", golden_map={0: "Y"}, seed=0,
        )
        ratio = r_std.device_seconds / r_gld.device_seconds
        assert 1.3 < ratio < 1.7  # paper: 18.84 / 12.61 ≈ 1.49

    def test_expectation_helper(self, spec, truth):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=50_000, golden="analytic", seed=4,
        )
        diag = np.ones(32)
        assert r.expectation(diag) == pytest.approx(1.0, abs=1e-9)

    def test_reconstruction_time_recorded(self, spec):
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=500, seed=5
        )
        assert r.reconstruction_seconds >= 0.0

    @pytest.mark.parametrize(
        "mode, golden_map", [("off", None), ("known", {0: "Y"}), ("analytic", None)]
    )
    def test_cost_report_matches_executed_plan(self, spec, mode, golden_map):
        """The closed-form cost report counts what the tree run executed."""
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=400,
            golden=mode, golden_map=golden_map, seed=3,
        )
        assert r.tree_run.costs["variants_per_fragment"] == [
            r.costs.upstream_settings,
            r.costs.downstream_inits,
        ]
        assert r.tree_run.total_executions == r.costs.total_executions

    def test_matches_the_two_node_tree_run(self, spec):
        from repro.core import cut_and_run_tree

        kw = dict(shots=400, golden="known", seed=7)
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            golden_map={0: "Y"}, **kw,
        )
        t = cut_and_run_tree(
            spec.circuit, IdealBackend(), [spec.cut_spec],
            golden_maps=[{0: "Y"}], **kw,
        )
        np.testing.assert_array_equal(r.probabilities, t.probabilities)
        assert r.bases == t.bases[0]
        assert r.device_seconds == t.device_seconds

    def test_pair_is_bipartitioned_on_first_access(self, spec, monkeypatch):
        import repro.core.pipeline as pipeline

        calls = []
        real = pipeline.bipartition
        monkeypatch.setattr(
            pipeline, "bipartition", lambda *a: calls.append(a) or real(*a)
        )
        r = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=200, seed=0
        )
        assert calls == []
        pair = r.pair
        assert r.pair is pair and len(calls) == 1
        expected = bipartition(spec.circuit, spec.cut_spec)
        assert (pair.n_up, pair.n_down) == (expected.n_up, expected.n_down)
        assert pair.up_out_original == expected.up_out_original
        assert pair.down_out_original == expected.down_out_original
