"""Parallel fan-out over fragment variants.

The paper notes that circuit fragments "can be simulated independently …
run fragments in parallel" (§II-A).  Variants are embarrassingly parallel:
each is an independent execution with its own RNG stream.  We use a thread
pool — NumPy's kernels release the GIL inside BLAS/tensordot, so threads
scale for the density-matrix workloads — with a serial fallback that keeps
results bit-identical (each variant's RNG is derived from its index, not
from execution order).

Two structural optimisations over a naive per-task fan-out:

* **worker-local backends** — each pool thread builds one backend from
  ``backend_factory`` and reuses it for every task it picks up (backends
  keep a mutable virtual clock, so they cannot be shared *across* threads;
  the per-worker clocks are summed into the device-time ledger);
* **shared simulation cache** — the probe backend builds one
  :class:`~repro.cutting.cache.TreeCachePool` (one per-fragment cache per
  node of the tree, chain or 2-node pair — via
  :meth:`~repro.backends.base.Backend.make_tree_cache_pool`), warms every
  fragment's variants up front (batching each node's distinct measurement
  settings into one stacked rotation pass on the ideal path), and the pool
  is then shared **read-only** across all worker threads; each worker
  samples any (fragment, variant) task straight from the warmed
  distributions, so fragment bodies are transpiled/simulated exactly once
  however many workers run.

``mode="process"`` swaps the thread pool for a persistent
fork-server/spawn-safe process pool (:mod:`repro.parallel.pool`): the
parent warms the cache pool once, exports each cache's numeric banks into
shared memory, and every worker process rebuilds real cache instances
around zero-copy read-only views — warming stays once per *body*, never
once per worker.  The pool outlives the call: the first process-mode call
starts it, later calls reuse its workers, and it shuts itself down after
a short idle period (see :mod:`repro.parallel.pool` for why it must), so
worker start-up is not a per-call cost.  A worker that dies raises
:class:`~repro.exceptions.WorkerPoolError`.  Results are bit-identical
across all three modes because each task's RNG stream is derived from
its global index.

Choosing a mode:

* **thread** — BLAS/tensordot-bound workloads (statevector and
  density-matrix backends): NumPy releases the GIL inside its kernels,
  threads share the warmed pool without any serialisation cost.
* **process** — CPU-bound Python workloads (per-gate trajectory loops
  such as :class:`~repro.backends.trajectory.TrajectoryBackend`, heavy
  per-variant Python bookkeeping): the GIL serialises threads, so fan
  out across processes; the shared-memory cache banks keep the
  per-call worker cost at one attach instead of one warm-up.
  (Benchmarked in ``benchmarks/bench_process_executor.py``.)
* **serial** — debugging and single-core runs; also the reference the
  equivalence suites pin both pools against.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from repro.backends.base import Backend
from repro.cutting.execution import (
    TreeFragmentData,
    _split_joint_probs,
    _tree_variant_lists,
)
from repro.utils.rng import spawn_rngs, spawn_seed_sequences

T = TypeVar("T")
U = TypeVar("U")

__all__ = [
    "parallel_map",
    "run_chain_fragments_parallel",
    "run_tree_fragments_parallel",
]


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    max_workers: int | None = None,
    mode: str = "thread",
) -> list[U]:
    """Order-preserving map over a thread pool.

    ``mode="serial"`` executes in the calling thread (useful for debugging
    and for backends that are not thread-safe); results are identical in
    both modes because work items carry their own RNG streams.  Process
    fan-out lives in :mod:`repro.parallel.pool`, behind the fragment
    executors' ``mode="process"``; any other ``mode`` is a ``ValueError``.
    """
    if mode == "serial" or len(items) <= 1:
        return [fn(x) for x in items]
    if mode != "thread":
        raise ValueError(f"unknown parallel mode {mode!r}")
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(fn, items))


def _fan_out(
    backend_factory: Callable[[], Backend],
    probe: Backend,
    tasks: Sequence,
    run_task: Callable,
    streams: Sequence,
    max_workers: int | None,
    mode: str,
) -> tuple[list, float, int]:
    """Worker scaffolding of the parallel executor.

    Each pool thread lazily builds one backend from ``backend_factory`` and
    reuses it for every task it picks up; ``run_task(backend, task,
    streams[t])`` executes one variant.  ``streams`` carries one RNG source
    per task — Generators on the plain path, SeedSequence children on the
    retry path (each attempt rebuilds its Generator fresh so a retry
    re-samples the same stream).  Returns the ordered results plus the
    summed worker-clock seconds (the device-time ledger).  Results are
    independent of worker count and of ``mode`` because every task's RNG
    stream is derived from its index.
    """
    rngs = list(streams)
    backends = [probe]
    local = threading.local()
    local.backend = probe  # the calling thread reuses the probe
    lock = threading.Lock()

    def worker_backend() -> Backend:
        backend = getattr(local, "backend", None)
        if backend is None:
            backend = backend_factory()
            local.backend = backend
            with lock:
                backends.append(backend)
        return backend

    def job(arg):
        task, rng = arg
        return run_task(worker_backend(), task, rng)

    results = parallel_map(
        job, list(zip(tasks, rngs)), max_workers=max_workers, mode=mode
    )
    return results, sum(b.clock.now for b in backends), len(backends)


def run_tree_fragments_parallel(
    tree,
    backend_factory: Callable[[], Backend],
    shots: int,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    max_workers: int | None = None,
    mode: str = "thread",
    dtype=np.float64,
    retry=None,
    ledger=None,
    on_exhausted: str = "raise",
) -> TreeFragmentData:
    """Threaded equivalent of :func:`repro.cutting.execution.run_tree_fragments`.

    Every (fragment, variant) task across the whole tree is one work item;
    the probe backend's :class:`~repro.cutting.cache.TreeCachePool` is
    warmed **once** eagerly and then shared read-only by all workers, so
    each fragment body is transpiled/simulated exactly once regardless of
    worker count.  Results are independent of worker count and of ``mode``
    (``"serial"``/``"thread"``/``"process"``) because every task's RNG
    stream is derived from its global index.  ``mode="process"`` ships the
    warmed pool through shared memory to the persistent worker processes
    (:mod:`repro.parallel.pool`; a dead worker raises
    :class:`~repro.exceptions.WorkerPoolError`) and merges per-worker
    attempt records back into ``ledger`` in task order; retry policies
    carrying a shared ``deadline`` or ``breaker_threshold`` are rejected
    there (their meters cannot span processes — use ``mode="thread"``).
    ``dtype`` sets the record precision (sampling happens in float64
    before the cast, so RNG streams are unchanged).

    ``retry`` (a :class:`~repro.cutting.resilience.RetryPolicy`) routes
    every task through the same :class:`~repro.cutting.resilience
    .RetryEngine` the serial path uses: each attempt rebuilds the task's
    generator from its SeedSequence child, so with no fault the counts are
    bit-identical to the retry-free run in both modes, and a retried
    variant re-samples its original stream.  Attempts land in ``ledger``
    (order nondeterministic under threads — compare ``canonical()`` forms).
    ``on_exhausted="degrade"`` records exhausted variants in metadata
    ``degraded_sites`` instead of raising.
    """
    variants = _tree_variant_lists(tree, variants)
    tasks = [
        (i, combo)
        for i, combos in enumerate(variants)
        if combos is not None  # None = fragment skipped (partial pass)
        for combo in combos
    ]

    probe = backend_factory()
    pool = probe.make_tree_cache_pool(tree, dtype=dtype)
    if pool is not None:
        pool.warm(variants)

    engine = None
    if retry is not None:
        from repro.cutting.resilience import RetryEngine

        engine = RetryEngine(retry, ledger=ledger)
        streams = spawn_seed_sequences(seed, len(tasks))
    elif on_exhausted != "raise":
        raise ValueError("on_exhausted='degrade' requires a retry policy")
    else:
        streams = spawn_rngs(seed, len(tasks))

    if mode == "process":
        if retry is not None and (
            retry.deadline is not None or retry.breaker_threshold is not None
        ):
            raise ValueError(
                "mode='process' cannot share a deadline meter or circuit "
                "breaker across worker processes; use mode='thread' for "
                "policies with deadline/breaker_threshold"
            )
        from repro.parallel.pool import run_tree_tasks_process

        probs_list, seconds, num_backends, task_records = (
            run_tree_tasks_process(
                backend_factory,
                tree,
                tasks,
                streams,
                shots,
                pool=pool,
                dtype=dtype,
                retry=retry,
                on_exhausted=on_exhausted,
                max_workers=max_workers,
                warm_variants=variants,
            )
        )
        if engine is not None:
            # merge worker ledgers in deterministic task order; canonical()
            # forms then match serial/thread runs exactly
            for recs in task_records:
                for r in recs:
                    engine.ledger.record(
                        r.site,
                        r.attempt,
                        r.outcome,
                        latency=r.latency,
                        backoff=r.backoff,
                        error=r.error,
                    )
    else:

        def run_task(backend, task, stream):
            index, combo = task
            cache = pool[index] if pool is not None else None
            if engine is None:
                return backend.run_tree_variants(
                    tree, index, [combo], shots=shots, seed=stream, cache=cache
                )[0]
            site = ("tree", index, combo[0], combo[1])

            def call():
                # fresh generator per attempt: the backend draws the same
                # sampling child the retry-free task would
                return backend.run_tree_variants(
                    tree,
                    index,
                    [combo],
                    shots=shots,
                    seed=np.random.default_rng(stream),
                    cache=cache,
                )[0]

            return engine.run_single(
                site,
                call,
                expected_shots=shots,
                expected_qubits=tree.fragments[index].num_qubits,
                clock=backend.clock,
                breaker_key=index,
                on_exhausted=on_exhausted,
            )

        results, seconds, num_backends = _fan_out(
            backend_factory, probe, tasks, run_task, streams, max_workers, mode
        )
        probs_list = [
            None if res is None else res.probabilities() for res in results
        ]
    records: list[dict] = [{} for _ in tree.fragments]
    degraded = []
    for (index, combo), probs in zip(tasks, probs_list):
        if probs is None:  # exhausted under on_exhausted="degrade"
            degraded.append((index, combo))
            continue
        frag = tree.fragments[index]
        records[index][combo] = _split_joint_probs(
            probs, frag.out_local, frag.cut_local, dtype
        )
    metadata = {
        "parallel": True,
        "num_variants": len(tasks),
        "num_worker_backends": num_backends,
        "cached": pool is not None,
    }
    if degraded:
        metadata["degraded_sites"] = degraded
    if engine is not None:
        metadata["retry"] = engine.ledger.summary()
    return TreeFragmentData(
        tree=tree,
        records=records,
        shots_per_variant=shots,
        modeled_seconds=seconds,
        metadata=metadata,
    )


def run_chain_fragments_parallel(
    chain,
    backend_factory: Callable[[], Backend],
    shots: int,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    max_workers: int | None = None,
    mode: str = "thread",
    dtype=np.float64,
    retry=None,
    ledger=None,
    on_exhausted: str = "raise",
) -> TreeFragmentData:
    """Chain alias of :func:`run_tree_fragments_parallel` (a linear tree)."""
    from repro.cutting.execution import ChainFragmentData

    return ChainFragmentData._from_tree_data(
        run_tree_fragments_parallel(
            chain,
            backend_factory,
            shots,
            variants=variants,
            seed=seed,
            max_workers=max_workers,
            mode=mode,
            dtype=dtype,
            retry=retry,
            ledger=ledger,
            on_exhausted=on_exhausted,
        )
    )
