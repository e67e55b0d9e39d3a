"""Tests for the experiment harness (mini versions of each figure).

These assert the *shape* of each reproduced result: golden ≈ uncut accuracy
(Fig. 3), golden faster than standard (Figs. 4–5, with the paper's 1.5×
modeled device ratio), and the 4^{K_r}3^{K_g} scaling grid (§II-B).
"""

import numpy as np
import pytest

from repro.harness import (
    format_table,
    run_fig3,
    run_fig4,
    run_fig5,
    run_scaling,
    run_trials,
    trial_seeds,
)


class TestTrialPlumbing:
    def test_seeds_deterministic(self):
        assert trial_seeds(7, 5) == trial_seeds(7, 5)
        assert trial_seeds(7, 5) != trial_seeds(8, 5)

    def test_run_trials_passes_index_and_seed(self):
        log = run_trials(lambda i, s: (i, s), 4, seed=1)
        assert [x[0] for x in log] == [0, 1, 2, 3]
        assert len({x[1] for x in log}) == 4


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig3(sizes=(5,), trials=4, shots=6000, seed=3)

    def test_all_series_present(self, result):
        labels = [s.label for s in result.stats]
        assert any("uncut" in l and "d_w" in l for l in labels)
        assert any("golden cut" in l and "d_w" in l for l in labels)

    def test_distances_positive(self, result):
        for s in result.stats:
            assert s.mean >= 0.0

    def test_paper_shape_golden_comparable_to_uncut(self, result):
        """Fig. 3's finding: cut accuracy ≈ uncut accuracy (same order)."""
        by = result.by_label()
        uncut = by["5q uncut on hardware (d_w)"].mean
        cut = by["5q golden cut on hardware (d_w)"].mean
        assert cut < 20 * max(uncut, 1e-6)

    def test_rows_renderable(self, result):
        table = format_table(result.rows())
        assert "mean" in table


class TestFig4:
    def test_golden_runs_fewer_variants(self):
        # the counted side of the timed saving: 9 vs 6 variants per trial
        # (wall-clock speedup is the figure, not a tier-1 assertion)
        r = run_fig4(trials=8, shots=400, seed=11)
        assert r.variants_standard == [9] * 8
        assert r.variants_golden == [6] * 8

    def test_rows(self):
        r = run_fig4(trials=3, shots=200, seed=12)
        rows = r.rows()
        assert len(rows) == 3


class TestFig5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_fig5(trials=4, shots=1000, seed=13)

    def test_modeled_ratio_matches_paper(self, result):
        """paper: 18.84 / 12.61 ≈ 1.49; our model: exactly 1.5."""
        assert result.speedup == pytest.approx(1.5, rel=0.05)

    def test_absolute_seconds_ballpark(self, result):
        assert 14 < result.standard.mean < 24
        assert 9 < result.golden.mean < 16

    def test_execution_counts(self, result):
        # per trial: 9 vs 6 variants x 1000 shots
        assert result.executions_standard == 4 * 9000
        assert result.executions_golden == 4 * 6000


class TestScaling:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_scaling(max_cuts=2, depth=2, seed=5, repeats=1)

    def test_grid_complete(self, rows):
        combos = {(r["K"], r["K_golden"]) for r in rows}
        assert combos == {(1, 0), (1, 1), (2, 0), (2, 1), (2, 2)}

    def test_formula_columns(self, rows):
        for r in rows:
            K, kg = r["K"], r["K_golden"]
            assert r["rows(4^Kr*3^Kg)"] == 4 ** (K - kg) * 3**kg
            assert r["upstream"] == 3 ** (K - kg) * 2**kg
            assert r["downstream"] == 6 ** (K - kg) * 4**kg
            assert r["variants"] == r["upstream"] + r["downstream"]

    def test_golden_reduces_reconstruction_rows(self):
        """Every extra golden cut shrinks the counted reconstruction rows
        (the deterministic cost the wall-time column measures)."""
        rows = run_scaling(max_cuts=3, depth=2, seed=6, repeats=1)
        k3 = {r["K_golden"]: r["rows(4^Kr*3^Kg)"] for r in rows if r["K"] == 3}
        assert k3[3] < k3[2] < k3[1] < k3[0]  # 27 < 36 < 48 < 64


class TestReport:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.333333}]
        out = format_table(rows, title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_empty(self):
        assert "(no rows)" in format_table([])
