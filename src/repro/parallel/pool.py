"""Process-pool fan-out with shared-memory cache banks.

The machinery behind ``mode="process"`` in
:func:`repro.parallel.executor.run_tree_fragments_parallel`:

* the parent warms the probe backend's
  :class:`~repro.cutting.cache.TreeCachePool` exactly once (the same
  warm-once law the thread executor enforces), exports each cache's large
  numeric banks — body response tensors, rotation banks, memoised
  distributions — into **one shared-memory segment per fragment**
  (:class:`SharedArrayBank`), and ships only the small picklable manifests
  to the workers;
* each worker process builds one backend from the picklable
  ``backend_factory``, maps the shared segments zero-copy/read-only, and
  rebuilds real cache instances around its own fragment objects via
  :meth:`~repro.backends.base.Backend.restore_tree_fragment_cache` — so
  fragment bodies are transpiled/simulated once *per body*, never once per
  worker;
* each task executes in the worker exactly as the thread executor's
  ``run_task`` would — same per-task RNG stream (a pickled Generator, or a
  SeedSequence child rebuilt per retry attempt), same
  :meth:`~repro.cutting.resilience.RetryEngine.run_single` call shape —
  and returns its probabilities, its worker-clock delta, and its
  :class:`~repro.cutting.resilience.AttemptRecord` list, which the parent
  merges into the caller's ledger in deterministic task order.

Start method: ``forkserver`` where available (Linux), else ``spawn``; both
re-import modules rather than forking arbitrary parent state, so the pool
is safe under threads.  Override with the ``REPRO_MP_START`` environment
variable (``fork``/``forkserver``/``spawn``) when debugging.

Typed exceptions raised in workers cross the boundary intact — every class
in :mod:`repro.exceptions` pickle-round-trips (site/attempt attributes
included), so the parent sees exactly the failure the serial path would
have raised.
"""

from __future__ import annotations

import multiprocessing
import os
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "SharedArrayBank",
    "export_cache_pool",
    "resolve_start_method",
    "run_tree_tasks_process",
]

_ALIGN = 64


class SharedArrayBank:
    """Named read-only numpy arrays packed into one shared-memory segment.

    :meth:`pack` (parent side) lays every array out 64-byte aligned in a
    fresh :class:`multiprocessing.shared_memory.SharedMemory` block and
    returns the bank plus a small picklable ``manifest``; :meth:`attach`
    (worker side) maps the segment and rebuilds zero-copy read-only views.
    The parent owns the segment's lifetime: workers only ``close()`` their
    mapping, the parent ``unlink()``\\ s after the pool is done.
    """

    def __init__(self, shm, manifest: dict) -> None:
        self._shm = shm
        self.manifest = manifest

    @classmethod
    def pack(cls, arrays: "dict[str, np.ndarray]") -> "SharedArrayBank":
        entries = []
        offset = 0
        for key in sorted(arrays):
            arr = np.ascontiguousarray(arrays[key])
            entries.append((key, offset, arr.shape, arr.dtype.str))
            offset += arr.nbytes
            offset += (-offset) % _ALIGN
        shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
        for (key, off, shape, dt), src in zip(
            entries, (arrays[k] for k in sorted(arrays))
        ):
            dst = np.ndarray(shape, dtype=dt, buffer=shm.buf, offset=off)
            dst[...] = src
        return cls(shm, {"shm": shm.name, "entries": entries})

    @classmethod
    def attach(cls, manifest: dict) -> "SharedArrayBank":  # pragma: no cover
        # worker-side only: executes in pool subprocesses, invisible to
        # coverage (exercised by the process-mode equivalence tests).
        # Attaching re-registers the name with the (shared) resource
        # tracker — a set-add no-op; the parent's unlink() performs the one
        # matching unregister, so no tracker warnings or double-unlinks.
        return cls(shared_memory.SharedMemory(name=manifest["shm"]), manifest)

    def arrays(self) -> "dict[str, np.ndarray]":
        out = {}
        for key, off, shape, dt in self.manifest["entries"]:
            view = np.ndarray(
                tuple(shape), dtype=dt, buffer=self._shm.buf, offset=off
            )
            view.flags.writeable = False
            out[key] = view
        return out

    def close(self) -> None:
        self._shm.close()

    def unlink(self) -> None:
        try:
            self._shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


def export_cache_pool(pool) -> tuple:
    """Export a warmed cache pool as picklable per-fragment manifests.

    Returns ``(entries, banks)``: ``entries[i]`` is ``None`` for a
    cache-less fragment or ``(bank_manifest, meta)`` pairing the shared
    segment with the cache's pickled manifest; ``banks`` are the live
    :class:`SharedArrayBank` handles the parent must keep until the pool
    of workers is done, then release.  A pool whose caches cannot export
    (no ``export_arrays``) yields ``(None, [])`` — workers then warm
    locally, which is correct, just not shared.
    """
    if pool is None:
        return None, []
    entries: list = []
    banks: list[SharedArrayBank] = []
    for cache in pool:
        export = getattr(cache, "export_arrays", None)
        if export is None:
            for bank in banks:
                bank.close()
                bank.unlink()
            return None, []
        arrays, meta = export()
        bank = SharedArrayBank.pack(arrays)
        banks.append(bank)
        entries.append((bank.manifest, meta))
    return entries, banks


# ----------------------------------------------------------------------
# Worker side.  One module-level dict per worker process, filled by the
# pool initializer; Pool.map then streams small task tuples at it.  These
# functions run only inside pool subprocesses, so coverage cannot see
# them — the process-mode bit-identity tests are their real gate.

_WORKER: dict = {}


def _worker_init(payload: dict) -> None:  # pragma: no cover
    backend = payload["backend_factory"]()
    tree = payload["tree"]
    caches = None
    banks = []
    if payload["cache_entries"] is not None:
        caches = []
        for frag, entry in zip(tree.fragments, payload["cache_entries"]):
            if entry is None:
                caches.append(None)
                continue
            manifest, meta = entry
            bank = SharedArrayBank.attach(manifest)
            banks.append(bank)  # keep the mapping alive for process life
            caches.append(
                backend.restore_tree_fragment_cache(frag, bank.arrays(), meta)
            )
    elif payload["warm_variants"] is not None:
        # caches exist but could not be exported: warm per worker
        pool = backend.make_tree_cache_pool(tree, dtype=payload["dtype"])
        if pool is not None:
            pool.warm(payload["warm_variants"])
            caches = list(pool)
    _WORKER.update(
        backend=backend,
        tree=tree,
        caches=caches,
        banks=banks,
        shots=payload["shots"],
        retry=payload["retry"],
        on_exhausted=payload["on_exhausted"],
    )


def _worker_run(task) -> tuple:  # pragma: no cover
    index, combo, stream = task
    backend = _WORKER["backend"]
    tree = _WORKER["tree"]
    shots = _WORKER["shots"]
    caches = _WORKER["caches"]
    cache = caches[index] if caches is not None else None
    policy = _WORKER["retry"]
    # each task is clocked from zero: a difference against the worker's
    # running total would round differently depending on which tasks the
    # worker happened to run before, so the parent's sum would drift
    backend.clock.reset()
    if policy is None:
        res = backend.run_tree_variants(
            tree, index, [combo], shots=shots, seed=stream, cache=cache
        )[0]
        return res.probabilities(), backend.clock.now, []

    from repro.cutting.resilience import RetryEngine

    engine = RetryEngine(policy)
    site = ("tree", index, combo[0], combo[1])

    def call():
        # fresh generator per attempt: the backend draws the same sampling
        # child the retry-free task would (stream is a SeedSequence here)
        return backend.run_tree_variants(
            tree,
            index,
            [combo],
            shots=shots,
            seed=np.random.default_rng(stream),
            cache=cache,
        )[0]

    res = engine.run_single(
        site,
        call,
        expected_shots=shots,
        expected_qubits=tree.fragments[index].num_qubits,
        clock=backend.clock,
        breaker_key=index,
        on_exhausted=_WORKER["on_exhausted"],
    )
    probs = None if res is None else res.probabilities()
    return probs, backend.clock.now, engine.ledger.records


# ----------------------------------------------------------------------
# Parent side.


def resolve_start_method(start_method: "str | None" = None) -> str:
    """The pool's start method: explicit arg > ``REPRO_MP_START`` > default.

    Default is ``forkserver`` where available (Linux), else ``spawn`` —
    both are safe in threaded parents, which plain ``fork`` is not.
    """
    method = start_method or os.environ.get("REPRO_MP_START")
    if method is None:
        available = multiprocessing.get_all_start_methods()
        method = "forkserver" if "forkserver" in available else "spawn"
    return method


def run_tree_tasks_process(
    backend_factory: Callable,
    tree,
    tasks: Sequence[tuple],
    streams: Sequence,
    shots: int,
    pool=None,
    dtype=np.float64,
    retry=None,
    on_exhausted: str = "raise",
    max_workers: "int | None" = None,
    warm_variants=None,
    start_method: "str | None" = None,
) -> tuple:
    """Execute tree-fragment tasks on a process pool.

    ``tasks`` are ``(fragment_index, combo)`` pairs and ``streams`` their
    per-task RNG sources, exactly as the thread executor builds them —
    Generators on the plain path, SeedSequence children on the retry path —
    so results are bit-identical to serial and thread modes.  Returns
    ``(results, seconds, num_workers, records)`` where ``results[t]`` is
    the task's flat probability vector (``None`` for a variant degraded
    under ``on_exhausted="degrade"``), ``seconds`` sums every worker-clock
    delta (the device-time ledger), and ``records`` is the per-task list
    of :class:`~repro.cutting.resilience.AttemptRecord` lists for the
    parent to merge into its ledger.
    """
    entries, banks = export_cache_pool(pool)
    payload = {
        "backend_factory": backend_factory,
        "tree": tree,
        "shots": shots,
        "dtype": dtype,
        "retry": retry,
        "on_exhausted": on_exhausted,
        "cache_entries": entries,
        "warm_variants": warm_variants if entries is None else None,
    }
    num_workers = max_workers or os.cpu_count() or 1
    num_workers = max(1, min(num_workers, len(tasks)))
    ctx = multiprocessing.get_context(resolve_start_method(start_method))
    work = [
        (index, combo, stream)
        for (index, combo), stream in zip(tasks, streams)
    ]
    try:
        with ctx.Pool(
            processes=num_workers,
            initializer=_worker_init,
            initargs=(payload,),
        ) as mp_pool:
            out = mp_pool.map(_worker_run, work, chunksize=1)
    finally:
        for bank in banks:
            bank.close()
            bank.unlink()
    results = [probs for probs, _, _ in out]
    seconds = float(sum(delta for _, delta, _ in out))
    records = [recs for _, _, recs in out]
    return results, seconds, num_workers, records
