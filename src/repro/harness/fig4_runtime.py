"""Reproduction of paper Fig. 4 — algorithm runtime on the simulator.

The experiment "recorded the time taken for gathering fragment data and
reconstructing them on a randomly generated circuit", with and without the
golden-cutting-point optimisation, for 1000 trials × 1000 shots.  On a
noiseless simulator the saving comes from running 6 instead of 9 fragment
variants and contracting 12 instead of 16 reconstruction terms.

We measure real wall time (``perf_counter``) of the full
gather-and-reconstruct pipeline per trial, and record each run's executed
variant count beside it (the deterministic side of the same saving).  The
bench defaults to fewer trials than the paper's 1000 to keep CI fast; pass
``trials=1000`` for the full protocol.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backends.ideal import IdealBackend
from repro.core.ansatz import golden_ansatz
from repro.core.pipeline import cut_and_run
from repro.harness.experiment import run_trials
from repro.metrics.stats import TrialStats, summarize_trials
from repro.utils.timing import Stopwatch

__all__ = ["Fig4Result", "run_fig4"]


@dataclass
class Fig4Result:
    standard: TrialStats
    golden: TrialStats
    speedup: float
    raw_standard: list[float]
    raw_golden: list[float]
    #: executed fragment variants per trial (``costs.num_variants``)
    variants_standard: list[int]
    variants_golden: list[int]

    def rows(self) -> list[dict]:
        return [
            {**self.standard.as_row(), "series": "standard"},
            {**self.golden.as_row(), "series": "golden"},
            {
                "label": "speedup (standard/golden)",
                "n": self.standard.n,
                "mean": self.speedup,
                "std": 0.0,
                "ci95_low": "",
                "ci95_high": "",
                "series": "ratio",
            },
        ]


def run_fig4(
    num_qubits: int = 5,
    trials: int = 50,
    shots: int = 1000,
    seed: int = 404,
    depth: int = 3,
) -> Fig4Result:
    """Time standard vs golden gather+reconstruct on the ideal simulator."""
    backend = IdealBackend()

    def trial(i: int, s: int) -> tuple:
        spec = golden_ansatz(num_qubits, depth=depth, golden_basis="Y", seed=s)
        with Stopwatch() as sw_std:
            std_run = cut_and_run(
                spec.circuit, backend, cuts=spec.cut_spec, shots=shots,
                golden="off", seed=s,
            )
        with Stopwatch() as sw_gld:
            gld_run = cut_and_run(
                spec.circuit, backend, cuts=spec.cut_spec, shots=shots,
                golden="known", golden_map={0: spec.golden_basis}, seed=s,
            )
        return (
            sw_std.elapsed,
            sw_gld.elapsed,
            std_run.costs.num_variants,
            gld_run.costs.num_variants,
        )

    outcomes = run_trials(trial, trials, seed=seed)
    std_series = [o[0] for o in outcomes]
    gld_series = [o[1] for o in outcomes]
    std = summarize_trials("standard runtime [s]", std_series)
    gld = summarize_trials("golden runtime [s]", gld_series)
    return Fig4Result(
        standard=std,
        golden=gld,
        speedup=std.mean / gld.mean if gld.mean > 0 else float("inf"),
        raw_standard=std_series,
        raw_golden=gld_series,
        variants_standard=[o[2] for o in outcomes],
        variants_golden=[o[3] for o in outcomes],
    )
