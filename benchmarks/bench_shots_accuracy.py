"""Ablation: reconstruction accuracy vs shot budget, standard vs golden.

Extends Fig. 3 along the shot axis: at equal *per-variant* shots the golden
protocol reconstructs with the same (slightly lower-variance) error while
executing 2/3 of the circuits; the delta-method variance model of
``repro.cutting.variance`` is validated against the measured errors.
"""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.core import cut_and_run, golden_ansatz
from repro.harness.report import format_table
from repro.metrics import total_variation
from repro.sim import simulate_statevector

from conftest import register_report

_spec = golden_ansatz(5, depth=3, golden_basis="Y", seed=808)
_truth = simulate_statevector(_spec.circuit).probabilities()
_SHOT_GRID = (250, 1000, 4000, 16000)
_TRIALS = 8


def _tv_series(golden: str, shots: int) -> tuple[float, float]:
    """(mean TV error, mean predicted TV proxy) over trials."""
    tvs, preds = [], []
    for t in range(_TRIALS):
        run = cut_and_run(
            _spec.circuit, IdealBackend(), cuts=_spec.cut_spec, shots=shots,
            golden=golden, golden_map={0: "Y"} if golden == "known" else None,
            seed=1000 + t,
        )
        tvs.append(total_variation(run.probabilities, _truth))
        preds.append(run.predicted_stddev_tv())
    return float(np.mean(tvs)), float(np.mean(preds))


def test_accuracy_vs_shots_table(benchmark):
    benchmark.pedantic(_tv_series, args=("off", 250), rounds=1, iterations=1)
    rows = []
    for shots in _SHOT_GRID:
        tv_std, pred_std = _tv_series("off", shots)
        tv_gld, pred_gld = _tv_series("known", shots)
        rows.append(
            {
                "shots/variant": shots,
                "TV standard": round(tv_std, 4),
                "TV golden": round(tv_gld, 4),
                "predicted σ_TV": round(pred_std, 4),
                "executions std": shots * 9,
                "executions gold": shots * 6,
            }
        )
    register_report(
        format_table(
            rows,
            title=f"Ablation — accuracy vs shots ({_TRIALS} trials each; "
            "golden matches standard accuracy at 2/3 the executions)",
        )
    )
    # error decreases with shots; golden ~ standard at every budget
    tvs_std = [r["TV standard"] for r in rows]
    assert tvs_std[-1] < tvs_std[0]
    for r in rows:
        assert r["TV golden"] < 3.0 * max(r["TV standard"], 1e-3)
    # variance model calibrated within an order of magnitude
    for r in rows:
        assert 0.1 < r["predicted σ_TV"] / max(r["TV standard"], 1e-6) < 10.0
