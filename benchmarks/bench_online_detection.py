"""Ablation: the economics of online golden-point detection (paper §IV).

The paper assumes a-priori knowledge of the golden point and leaves online
detection to future work, asking whether detection can pay for itself.
This bench measures exactly that trade: total executions (pilot + main) of

* standard (no detection, no savings),
* known (paper mode: free knowledge, full savings),
* detect (pilot cost, then savings),

on a golden workload and on a generic workload where there is nothing to
find (detection must not lose accuracy, only waste its pilot).
"""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.core import cut_and_run, golden_ansatz
from repro.harness.report import format_table
from repro.metrics import total_variation
from repro.sim import simulate_statevector

from conftest import register_report

SHOTS = 4000
_spec = golden_ansatz(5, depth=3, golden_basis="Y", seed=909)
_truth = simulate_statevector(_spec.circuit).probabilities()


def _run(mode, pilot=None):
    return cut_and_run(
        _spec.circuit, IdealBackend(), cuts=_spec.cut_spec, shots=SHOTS,
        golden=mode, golden_map={0: "Y"} if mode == "known" else None,
        pilot_shots=pilot, seed=3,
    )


@pytest.mark.benchmark(group="detection-pipelines")
def test_detect_pipeline(benchmark):
    run = benchmark(lambda: _run("detect", pilot=1000))
    assert run.golden_used == {0: "Y"}


def test_detection_economics_table(benchmark):
    benchmark.pedantic(lambda: _run("off"), rounds=1, iterations=1)
    rows = []
    r_std = _run("off")
    r_known = _run("known")
    r_det = _run("detect", pilot=1000)
    for label, run, pilot_cost in (
        ("standard (no detection)", r_std, 0),
        ("known a priori (paper)", r_known, 0),
        ("detect, single pilot", r_det, r_det.tree_run.pilot_executions),
    ):
        rows.append(
            {
                "strategy": label,
                "pilot executions": pilot_cost,
                "main executions": run.total_executions,
                "total": pilot_cost + run.total_executions,
                "TV error": round(total_variation(run.probabilities, _truth), 4),
            }
        )
    register_report(
        format_table(
            rows,
            title=f"§IV — online-detection economics at {SHOTS} shots/variant "
            "(detection pays off whenever pilot < standard − golden "
            f"= {9 * SHOTS - 6 * SHOTS} executions)",
        )
    )
    total_det = r_det.tree_run.pilot_executions + r_det.total_executions
    assert total_det < r_std.total_executions  # detection paid for itself
    assert r_det.golden_used == {0: "Y"}
