"""Benchmark baseline writer and regression comparator.

Gives every future PR a perf trajectory to regress against.  Two modes:

Write (or refresh) the committed baselines::

    PYTHONPATH=src python benchmarks/compare.py --write-baseline

runs the hot-path suites through pytest-benchmark and dumps

* ``benchmarks/BENCH_reconstruction.json``   ← ``bench_reconstruction_kernel.py``
* ``benchmarks/BENCH_fragments.json``        ← ``bench_fragments.py``
* ``benchmarks/BENCH_noisy_fragments.json``  ← ``bench_noisy_fragments.py``
* ``benchmarks/BENCH_multi_fragment.json``   ← ``bench_multi_fragment.py``
* ``benchmarks/BENCH_chain_detection.json``  ← ``bench_chain_detection.py``
* ``benchmarks/BENCH_tree_fragments.json``   ← ``bench_tree_fragments.py``
* ``benchmarks/BENCH_sparse_reconstruction.json``
  ← ``bench_sparse_reconstruction.py``
* ``benchmarks/BENCH_resilience.json``       ← ``bench_resilience.py``
* ``benchmarks/BENCH_cut_search.json``       ← ``bench_cut_search.py``
* ``benchmarks/BENCH_dag_contraction.json``  ← ``bench_dag_contraction.py``
* ``benchmarks/BENCH_process_executor.json`` ← ``bench_process_executor.py``

Suites that opt into :func:`conftest.record_memory` also carry a
``mem_peak_bytes`` per benchmark (tracemalloc high-water mark of one
un-timed run); the comparison prints a memory column and flags a peak
growing beyond ``--max-regression`` exactly like a slowdown.

``--suite NAME`` (repeatable; matches the json/bench file stem) restricts
either mode to a subset, e.g. ``--write-baseline --suite noisy_fragments``
after intentionally shifting only the noisy path.

Compare the working tree against the baselines (the default)::

    PYTHONPATH=src python benchmarks/compare.py

re-runs the suites into a temporary directory and prints a per-benchmark
table of ``baseline_mean / current_mean`` speedups; cells new in the
working tree print as ``NEW`` and baseline cells the working tree no longer
runs print as ``GONE``, so a deleted benchmark never disappears silently.  ``--fail-on-regression``
exits non-zero when any benchmark got slower than ``--max-regression``
(default 1.5×) — wire this into CI once machines are stable enough.

Timings are machine-dependent: refresh baselines when the hardware changes,
and read ratios, not absolute times.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SUITES = {
    "BENCH_reconstruction.json": "bench_reconstruction_kernel.py",
    "BENCH_fragments.json": "bench_fragments.py",
    "BENCH_noisy_fragments.json": "bench_noisy_fragments.py",
    "BENCH_multi_fragment.json": "bench_multi_fragment.py",
    "BENCH_chain_detection.json": "bench_chain_detection.py",
    "BENCH_tree_fragments.json": "bench_tree_fragments.py",
    "BENCH_sparse_reconstruction.json": "bench_sparse_reconstruction.py",
    "BENCH_resilience.json": "bench_resilience.py",
    "BENCH_cut_search.json": "bench_cut_search.py",
    "BENCH_dag_contraction.json": "bench_dag_contraction.py",
    "BENCH_process_executor.json": "bench_process_executor.py",
}


def select_suites(names: "list[str] | None") -> dict[str, str]:
    """Restrict SUITES to the requested stems (``noisy_fragments``, ...)."""
    if not names:
        return SUITES
    out = {}
    for name in names:
        for json_name, bench_file in SUITES.items():
            stem = json_name[len("BENCH_") : -len(".json")]
            if name in (stem, json_name, bench_file):
                out[json_name] = bench_file
                break
        else:
            stems = [j[len("BENCH_") : -len(".json")] for j in SUITES]
            raise SystemExit(f"unknown suite {name!r}; choose from {stems}")
    return out


def run_suite(bench_file: str, json_path: Path) -> None:
    """Run one benchmark file with pytest-benchmark, dumping JSON results."""
    cmd = [
        sys.executable,
        "-m",
        "pytest",
        str(BENCH_DIR / bench_file),
        "--benchmark-only",
        "-q",
        f"--benchmark-json={json_path}",
    ]
    print(f"$ {' '.join(cmd)}")
    subprocess.run(cmd, check=True)


def load_stats(json_path: Path) -> dict[str, dict]:
    """benchmark name -> {mean seconds, tracemalloc peak bytes (or None)}.

    ``mem_peak_bytes`` comes from :func:`conftest.record_memory`; suites
    that never call it simply have no memory column, so old baselines
    keep comparing cleanly.
    """
    payload = json.loads(json_path.read_text())
    return {
        b["fullname"]: {
            "mean": b["stats"]["mean"],
            "mem": b.get("extra_info", {}).get("mem_peak_bytes"),
        }
        for b in payload["benchmarks"]
    }


def write_baselines(suites: dict[str, str]) -> None:
    for json_name, bench_file in suites.items():
        run_suite(bench_file, BENCH_DIR / json_name)
        print(f"wrote {BENCH_DIR / json_name}")


def compare(
    max_regression: float, fail_on_regression: bool, suites: dict[str, str]
) -> int:
    regressions: list[str] = []
    with tempfile.TemporaryDirectory() as tmp:
        for json_name, bench_file in suites.items():
            baseline_path = BENCH_DIR / json_name
            if not baseline_path.exists():
                print(f"!! no baseline {baseline_path}; run --write-baseline first")
                continue
            current_path = Path(tmp) / json_name
            run_suite(bench_file, current_path)
            baseline = load_stats(baseline_path)
            current = load_stats(current_path)
            print(f"\n== {bench_file} (vs {json_name}) ==")
            width = max((len(n) for n in {**baseline, **current}), default=0)
            for name, stats in sorted(current.items()):
                mean = stats["mean"]
                base = baseline.get(name)
                if base is None:
                    print(f"{name:<{width}}  NEW        {mean * 1e3:9.3f} ms")
                    continue
                ratio = (
                    mean / base["mean"] if base["mean"] > 0 else float("inf")
                )
                flag = ""
                if ratio > max_regression:
                    flag = "  <-- REGRESSION"
                    regressions.append(f"{name}: {ratio:.2f}x slower")
                mem_col = ""
                if stats["mem"] is not None and base["mem"]:
                    mem_ratio = stats["mem"] / base["mem"]
                    mem_col = (
                        f"  mem {base['mem'] / 1e6:8.2f} MB ->"
                        f" {stats['mem'] / 1e6:8.2f} MB"
                    )
                    if mem_ratio > max_regression:
                        flag = "  <-- MEM REGRESSION"
                        regressions.append(
                            f"{name}: {mem_ratio:.2f}x more peak memory"
                        )
                print(
                    f"{name:<{width}}  {base['mean'] * 1e3:9.3f} ms ->"
                    f" {mean * 1e3:9.3f} ms"
                    f"  ({1 / ratio:5.2f}x speedup){mem_col}{flag}"
                )
            for name in sorted(set(baseline) - set(current)):
                print(
                    f"{name:<{width}}  GONE       "
                    f"{baseline[name]['mean'] * 1e3:9.3f} ms"
                )
    if regressions:
        print("\nregressions beyond threshold:")
        for r in regressions:
            print(f"  {r}")
        if fail_on_regression:
            return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--write-baseline",
        action="store_true",
        help="refresh benchmarks/BENCH_*.json instead of comparing",
    )
    ap.add_argument(
        "--max-regression",
        type=float,
        default=1.5,
        help="slowdown ratio flagged as a regression (default 1.5)",
    )
    ap.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="exit non-zero when a regression is flagged",
    )
    ap.add_argument(
        "--suite",
        action="append",
        help="restrict to one suite (stem of BENCH_*.json; repeatable)",
    )
    args = ap.parse_args()
    suites = select_suites(args.suite)
    if args.write_baseline:
        write_baselines(suites)
        return 0
    return compare(args.max_regression, args.fail_on_regression, suites)


if __name__ == "__main__":
    raise SystemExit(main())
