"""End-to-end benchmark of the cut-and-run pipeline, with a per-stage trace.

Run from the repository root (the package is read from ``src/``)::

    python3 e2e_bench/run.py --workload noisy-detect-tree --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time, op latency (median and tail), throughput, executed variants and
shots, accuracy against the uncut ideal distribution and peak allocation.
Timings are gated at reference host speed (see :func:`probe_seconds`);
the raw wall-clock readings are printed beside them.
``--trace 1`` runs the same workload untraced for half the window and
traced for the other half, and reports the per-layer metrics: calls and
self time per op for every traced layer, plus the trace's own overhead.
``--ops N`` runs exactly N ops (per client) instead of a time window; the
self-test uses it to compare two same-seed runs exactly.

The workloads are listed in ``catalog.json`` (and ``workloads.py``).  Each
run prints a readable report and, as its last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; process-pool workers
# inherit the environment, so threads x processes never exceeds nproc.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import json
import math
import platform
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

#: set-ups per --trace 0 run; setup_s reports imports + their median
SETUP_REPEATS = 3
#: requests per client in the service workload's tracemalloc pass
ALLOC_REQUESTS = 5
#: first op index of the tracemalloc pass (outside the timed indices)
ALLOC_INDEX = 1 << 29
#: nominal duration of one speed probe; the *_ref timings are rescaled to it
PROBE_REFERENCE_S = 0.004
#: timed repeats per probe; the probe reports their median
PROBE_REPEATS = 5


def probe_seconds() -> float:
    """Median wall time of a fixed reference computation, taken now.

    On a shared host the other tenants slow every computation of a run by a
    common factor that drifts over minutes: op times of one commit spread by
    a third between runs, and CPU time spreads as much as wall time.  A
    timing multiplied by ``PROBE_REFERENCE_S / probe_seconds()``, with the
    probe taken next to it, cancels that factor.  Like the pipeline, the
    probe mixes interpreter work with small tensor contractions and one
    pass over a cache-sized array.
    """
    import numpy as np

    gate = np.full((2, 2, 2, 2), 0.5, dtype=complex)
    big = np.ones(1 << 19)
    times = []
    for _ in range(PROBE_REPEATS):
        state = np.ones((2,) * 12, dtype=complex)
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(40):
            state = np.tensordot(gate, state, axes=([2, 3], [k % 11, k % 11 + 1]))
            acc += sum({i: i * 0.5 for i in range(300)}.values())
        acc += float(np.dot(big, big))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def load_catalog() -> dict:
    with open(os.path.join(HERE, "catalog.json")) as fh:
        return json.load(fh)


def parse_args(argv=None):
    names = [w["name"] for w in load_catalog()["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=None, help="fixed op count per client")
    return ap.parse_args(argv)


# ----------------------------------------------------------------------
# loops


def run_single(wl, seconds, max_ops, start, tracer=None):
    """Closed loop of one client; returns ``(outcomes, busy seconds)``.

    Inputs are generated and checked between ops, outside the timing.
    """
    from workloads import OpOutcome

    outcomes = []
    busy = 0.0
    ordinal = 0
    untraced = tracer.paused if tracer else contextlib.nullcontext
    while (ordinal < max_ops) if max_ops is not None else (busy < seconds):
        index = start + ordinal
        with untraced():
            inp = wl.make_input(index)
            probe = probe_seconds()
        op_ctx = tracer.op(index) if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with op_ctx:
                res = wl.call(inp)
        except Exception as exc:  # counted as a failed op
            latency = time.perf_counter() - t0
            with untraced():
                probe = (probe + probe_seconds()) / 2
            outcome = OpOutcome(latency, ok=False, note=repr(exc), index=index, probe=probe)
        else:
            latency = time.perf_counter() - t0
            with untraced():
                # the host's speed is probed on both sides of the op
                probe = (probe + probe_seconds()) / 2
                ok, tv, note = wl.check(inp, res, ordinal)
            outcome = OpOutcome(
                latency, res, tv=tv, ok=ok, note=note, index=index, probe=probe
            )
        outcomes.append(outcome)
        busy += outcome.latency
        ordinal += 1
    return outcomes, busy


def run_service(wl, seconds, max_ops, start, tracer=None):
    """Both service clients; returns ``(outcomes, wall seconds)``.

    Request latency here is mostly the dispatcher's batching and the
    clients waiting on each other, which the host's speed does not scale
    (rescaling it by speed probes taken around the window spread the
    readings of one commit twice as wide as the raw ones), so the timings
    are not rescaled: every outcome carries the reference probe.
    """
    on_request = tracer.op if tracer else None
    outcomes, digests, wall = wl.run_clients(seconds, start, max_ops, on_request)
    with tracer.paused() if tracer else contextlib.nullcontext():
        bad = wl.verify(digests)
    for o in outcomes:
        o.probe = PROBE_REFERENCE_S
    for index, note in bad:
        for o in outcomes:
            if o.index == index:
                o.ok, o.note = False, note
    return outcomes, wall


def run_loop(wl, seconds, max_ops, start, tracer=None):
    loop = run_service if wl.clients > 1 else run_single
    return loop(wl, seconds, max_ops, start, tracer)


def set_up(cls, seed):
    """One set-up: build the workload and run its untimed warm-up op."""
    from workloads import WARMUP_INDEX

    t0 = time.perf_counter()
    wl = cls(seed)
    wl.setup()
    wl.warm_up(WARMUP_INDEX)
    return wl, time.perf_counter() - t0


def peak_alloc_mb(wl) -> float:
    """tracemalloc peak of one op (or a fixed request count), parent only."""
    gc.collect()  # start from the same heap whatever the timed loop left
    tracemalloc.start()
    try:
        if wl.clients > 1:
            wl.run_clients(0.0, ALLOC_INDEX, ALLOC_REQUESTS)
        else:
            inp = wl.make_input(ALLOC_INDEX)
            tracemalloc.reset_peak()
            wl.call(inp)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# metrics


def tail(latencies):
    """``(value, percentile, samples beyond)`` of the highest percentile
    with at least 10 samples beyond it; with 11 samples or fewer no
    percentile qualifies and the minimum is reported."""
    xs = sorted(latencies)
    n = len(xs)
    k = max(n - 11, 0)
    return xs[k], 100.0 * (k + 1) / n, n - 1 - k


def end_to_end(outcomes, window, setup_s, peak_mb):
    done = [o for o in outcomes if o.variants is not None]
    lat = [o.latency for o in outcomes]
    ref = [o.latency * PROBE_REFERENCE_S / o.probe for o in outcomes]
    speed = PROBE_REFERENCE_S / statistics.median(o.probe for o in outcomes)
    tvs = [o.tv for o in outcomes if o.tv is not None]
    tail_s, pct, beyond = tail(lat)
    metrics = {
        "setup_s": setup_s,
        "call_p50_ref_ms": 1e3 * statistics.median(ref),
        "call_tail_ref_ms": 1e3 * tail(ref)[0],
        # the window rescaled op by op (single client: the window is the
        # sum of the op latencies)
        "calls_per_ref_s": len(done) / (window * math.fsum(ref) / math.fsum(lat)),
        "variants_per_call": statistics.fmean(o.variants for o in done),
        "shots_per_call": statistics.fmean(o.shots for o in done),
        "tv_error": statistics.median(tvs),
        "peak_alloc_mb": peak_mb,
    }
    # raw wall-clock readings follow the host's other tenants, and modelled
    # device time is 0 on the ideal backends: printed, not gated
    info = {
        "call_p50_ms": 1e3 * statistics.median(lat),
        "call_tail_ms": 1e3 * tail_s,
        "calls_per_s": len(done) / window,
        "host_speed": speed,
        "device_s_per_call": statistics.fmean(o.device_s for o in done),
        "error_rate": sum(not o.ok for o in outcomes) / len(outcomes),
        "call_tail_percentile": pct,
        "call_tail_samples_beyond": beyond,
        "samples": len(lat),
    }
    return metrics, info


def environment() -> dict:
    import numpy

    from repro.parallel.pool import resolve_start_method

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_start_method": resolve_start_method(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def stop_helper_processes() -> None:
    """Stop the forkserver and resource tracker a process pool leaves."""
    import multiprocessing.forkserver as forkserver
    import multiprocessing.resource_tracker as resource_tracker

    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()


# ----------------------------------------------------------------------
# runs


def measure(cls, args, import_s, catalog):
    # set-up times are rescaled like the op timings, each by a probe taken
    # right after it
    import_s *= PROBE_REFERENCE_S / probe_seconds()
    walls = []
    wl = None
    for _ in range(SETUP_REPEATS):
        if wl is not None:
            wl.close()
        wl, seconds = set_up(cls, args.seed)
        walls.append(seconds * PROBE_REFERENCE_S / probe_seconds())
    try:
        outcomes, window = run_loop(wl, args.seconds, args.ops, 0)
        peak = peak_alloc_mb(wl)
    finally:
        wl.close()
    metrics, info = end_to_end(outcomes, window, import_s + statistics.median(walls), peak)
    units = {m["name"]: m["unit"] for m in catalog["end_to_end"] + catalog["reported"]}
    print(
        f"setup (reference speed): imports {import_s:.3f} s + median of "
        f"{[round(w, 3) for w in walls]} s"
    )
    for name, value in {**metrics, **info}.items():
        if name in units:
            print(f"  {name:<20} {value:>14.6g} {units[name]}")
    print(
        f"  call_tail_(ref_)ms is p{info['call_tail_percentile']:.1f} of {info['samples']} "
        f"samples ({info['call_tail_samples_beyond']} beyond)"
    )
    return outcomes, metrics, info


def trace(cls, args, catalog):
    from layers import ANNOTATORS, TARGETS, largest_stage, layer_metrics, stage_self_seconds
    from tracer import TraceError, Tracer

    wl, _ = set_up(cls, args.seed)
    half = args.seconds / 2
    tracer = Tracer(TARGETS, ANNOTATORS)
    try:
        plain, _ = run_loop(wl, half, args.ops, 0)
        stats0 = wl.stats() if wl.clients > 1 else None
        with tracer:
            traced, _ = run_loop(wl, half, args.ops, len(plain), tracer)
        stats1 = wl.stats() if wl.clients > 1 else None
    finally:
        wl.close()
    spans = tracer.spans
    fired = {s.name for s in spans}
    missing = [n for n in wl.expected_spans if n not in fired]
    if missing:
        raise TraceError(f"{wl.name}: expected spans never fired: {missing}")

    extra = {
        "neglect.variants_neglected": statistics.fmean(
            o.neglected for o in traced if o.neglected is not None
        ),
        "trace.overhead_ratio": statistics.median(o.latency for o in traced)
        / statistics.median(o.latency for o in plain),
        "service.coalesced_ratio": 0.0,
        "service.dispatch_batches": 0.0,
        "store.hit_ratio": 0.0,
    }
    if stats0 is not None:
        d = {k: stats1[k] - stats0[k] for k in stats0}
        extra["service.coalesced_ratio"] = d["coalesced"] / d["fragment_jobs"]
        extra["service.dispatch_batches"] = d["dispatch_batches"] / len(traced)
        lookups = d["store_hits"] + d["store_misses"]
        extra["store.hit_ratio"] = d["store_hits"] / lookups
    values = layer_metrics(spans, len(traced), extra)
    metrics = {m["name"]: values[m["name"]] for m in catalog["per_layer"]}

    stages = stage_self_seconds(spans)
    top = largest_stage(spans)
    n = len(traced)
    print(f"traced ops: {n} (untraced: {len(plain)})")
    for note in wl.notes:
        print(f"note: {note}")
    print("self time per op by stage:")
    for stage, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
        print(f"  {stage:<16} {1e3 * seconds / n:>10.3f} ms")
    verdict = "as expected" if top in wl.expected_stage else f"EXPECTED {wl.expected_stage}"
    print(f"largest self-time stage: {top} ({verdict})")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:.6g}")
    dump_trace(args, spans, stages, n, top)
    return plain + traced, metrics, {"largest_stage": top}


def dump_trace(args, spans, stages, num_ops, top):
    """Write the span totals of a traced run under ``.bench_trace/``."""
    from layers import span_totals

    calls, self_s, dur_s = span_totals(spans)
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_ops": num_ops,
        "largest_stage": top,
        "stages_s": stages,
        "spans": {
            name: {"calls": calls[name], "self_s": self_s[name], "total_s": dur_s[name]}
            for name in sorted(calls)
        },
    }
    os.makedirs(".bench_trace", exist_ok=True)
    path = os.path.join(".bench_trace", f"{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1)


def run(args) -> "tuple[dict, dict]":
    """One benchmark run; returns the result object and side information
    (unbounded readings such as ``device_s_per_call`` or, traced, the
    ``largest_stage``)."""
    catalog = load_catalog()
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads  # imports numpy and the repro package

    import_s = time.perf_counter() - t0
    cls = workloads.WORKLOADS[args.workload]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(environment(), sort_keys=True))
    try:
        if args.trace:
            outcomes, metrics, info = trace(cls, args, catalog)
            units = {m["name"]: m["unit"] for m in catalog["per_layer"]}
        else:
            outcomes, metrics, info = measure(cls, args, import_s, catalog)
            units = {m["name"]: m["unit"] for m in catalog["end_to_end"]}
    finally:
        stop_helper_processes()
    failures = [o for o in outcomes if not o.ok]
    for o in failures[:10]:
        print(f"FAILED op {o.index}: {o.note}")
    result = {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    return result, info


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the repro package is not under {SRC}", file=sys.stderr)
        return 2
    result, _ = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
