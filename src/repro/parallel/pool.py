"""Persistent process pool with shared-memory cache banks.

The machinery behind ``mode="process"`` in
:func:`repro.parallel.executor.run_tree_fragments_parallel`:

* the parent warms the probe backend's
  :class:`~repro.cutting.cache.TreeCachePool` exactly once (the same
  warm-once law the thread executor enforces), exports each cache's large
  numeric banks — body response tensors, rotation banks, memoised
  distributions — into **one shared-memory segment per fragment**
  (:class:`SharedArrayBank`), and pickles the rest of the call's context
  (backend factory, tree, shots, retry policy, bank manifests) into one
  more segment;
* each task carries only a call token, that segment's manifest and
  ``(index, combo, stream)``.  A worker rebuilds its context the first
  time it sees a token: one backend from the picklable
  ``backend_factory``, the shared segments mapped zero-copy/read-only, and
  real cache instances rebuilt around its own fragment objects via
  :meth:`~repro.backends.base.Backend.restore_tree_fragment_cache` — so
  fragment bodies are transpiled/simulated once *per body*, never once per
  worker.  When the token changes the worker closes the previous call's
  mappings, so it holds at most one call's context;
* each task executes in the worker exactly as the thread executor's
  ``run_task`` would — same per-task RNG stream (a pickled Generator, or a
  SeedSequence child rebuilt per retry attempt), same
  :meth:`~repro.cutting.resilience.RetryEngine.run_single` call shape —
  and returns its probabilities, its worker-clock delta, and its
  :class:`~repro.cutting.resilience.AttemptRecord` list, which the parent
  merges into the caller's ledger in deterministic task order.  The parent
  unlinks every segment of a call once all of its tasks are done.

Pool lifetime: one :class:`~concurrent.futures.ProcessPoolExecutor` per
``(start method, worker count)``, created by the first process-mode call
and reused by every later one, so worker start-up (each worker re-imports
numpy and :mod:`repro`) is paid once, not per call.  A pool shuts itself
down after :data:`IDLE_TIMEOUT_S` seconds without a call, and at exit.
The idle retirement is what lets a process stop its multiprocessing
helpers: every forkserver/spawn child inherits the forkserver's "alive"
fd and the resource tracker's fd, so stopping either helper waits until
the pool's workers have exited.

A worker that dies (SIGKILL, crash, out of memory) breaks its pool: the
call raises :class:`~repro.exceptions.WorkerPoolError` instead of hanging,
and the broken pool is dropped so the next call starts a fresh one.

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

import atexit
import itertools
import multiprocessing
import multiprocessing.forkserver as forkserver
import os
import pickle
import threading
from concurrent.futures import ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory
from typing import Callable, Sequence

import numpy as np

from repro.exceptions import WorkerPoolError

__all__ = [
    "IDLE_TIMEOUT_S",
    "SharedArrayBank",
    "export_cache_pool",
    "resolve_start_method",
    "run_tree_tasks_process",
]

_ALIGN = 64

#: seconds a process pool may sit without a call before it shuts down
IDLE_TIMEOUT_S = 2.0


class SharedArrayBank:
    """Named read-only numpy arrays packed into one shared-memory segment.

    :meth:`pack` (parent side) lays every array out 64-byte aligned in a
    fresh :class:`multiprocessing.shared_memory.SharedMemory` block and
    returns the bank plus a small picklable ``manifest``; :meth:`attach`
    (worker side) maps the segment and rebuilds zero-copy read-only views.
    The parent owns the segment's lifetime: workers only ``close()`` their
    mapping, the parent ``unlink()``\\ s once the call's tasks are done.
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
    :class:`SharedArrayBank` handles the parent must keep until the call's
    tasks are done, then release.  A pool whose caches cannot export
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
# Worker side.  One module-level dict per worker process holds the context
# of the call it last served, keyed by that call's token.  These functions
# run only inside pool subprocesses, so coverage cannot see them — the
# process-mode bit-identity tests are their real gate.

_WORKER: dict = {}


def _release_call() -> None:  # pragma: no cover
    """Drop the current call's context and close its bank mappings."""
    banks = _WORKER.get("banks", ())
    _WORKER.clear()  # the caches' views die here, before their mappings
    for bank in banks:
        bank.close()


def _load_call(token, manifest: dict) -> None:  # pragma: no cover
    """Rebuild the worker context from a call's pickled payload segment."""
    _release_call()
    bank = SharedArrayBank.attach(manifest)
    try:
        payload = pickle.loads(bank.arrays()["payload"].tobytes())
    finally:
        bank.close()
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
            bank_manifest, meta = entry
            bank = SharedArrayBank.attach(bank_manifest)
            banks.append(bank)  # mapped until the next call's token
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
        token=token,
        backend=backend,
        tree=tree,
        caches=caches,
        banks=banks,
        shots=payload["shots"],
        retry=payload["retry"],
        on_exhausted=payload["on_exhausted"],
    )


def _worker_run(task) -> tuple:  # pragma: no cover
    token, manifest, index, combo, stream = task
    if _WORKER.get("token") != token:
        _load_call(token, manifest)
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
# Parent side: the pool registry.


class _LivePool:
    """A registered executor, its in-flight call count and its idle timer."""

    def __init__(self, key: tuple) -> None:
        method, workers = key
        self.key = key
        self.executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=multiprocessing.get_context(method)
        )
        self.users = 0
        self.timer: "threading.Timer | None" = None
        # A process stopping its helpers (forkserver, then resource tracker)
        # waits for the forkserver, which exits with the last worker — but
        # the pool's queue semaphores are unregistered from the tracker only
        # after that, when close() drops the executor, so the tracker would
        # report them leaked.  Holding a copy of the forkserver's "alive" fd
        # until close() has dropped them keeps the forkserver up until then.
        self._alive_fd = None
        if method == "forkserver":
            forkserver.ensure_running()
            self._alive_fd = os.dup(forkserver._forkserver._forkserver_alive_fd)

    def close(self) -> None:
        self.executor.shutdown()
        self.executor = None  # frees the queues, unregistering their semaphores
        if self._alive_fd is not None:
            os.close(self._alive_fd)


_POOLS: "dict[tuple, _LivePool]" = {}
_POOLS_LOCK = threading.Lock()
_CALL_TOKENS = itertools.count()


def _acquire(key: tuple) -> _LivePool:
    """The live pool for ``key`` (started on first use), marked in use."""
    with _POOLS_LOCK:
        live = _POOLS.get(key)
        if live is None:
            live = _POOLS[key] = _LivePool(key)
        if live.timer is not None:
            live.timer.cancel()
            live.timer = None
        live.users += 1
        return live


def _release(live: _LivePool) -> None:
    """End one call on ``live``; the last one out arms the idle timer."""
    with _POOLS_LOCK:
        live.users -= 1
        if live.users == 0 and _POOLS.get(live.key) is live:
            live.timer = threading.Timer(IDLE_TIMEOUT_S, _retire_idle, (live,))
            live.timer.daemon = True
            live.timer.start()


def _retire_idle(live: _LivePool) -> None:
    with _POOLS_LOCK:
        if live.timer is not threading.current_thread():
            return  # a call took the pool back after this timer fired
        live.timer = None
        del _POOLS[live.key]
    live.close()


def _discard(live: _LivePool) -> None:
    """Unregister and shut down a broken pool."""
    with _POOLS_LOCK:
        if _POOLS.get(live.key) is live:
            del _POOLS[live.key]
    live.close()


@atexit.register
def _shutdown_pools() -> None:
    with _POOLS_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
        for live in pools:
            if live.timer is not None:
                live.timer.cancel()
    for live in pools:
        live.close()


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
    """Execute tree-fragment tasks on the persistent process pool.

    ``tasks`` are ``(fragment_index, combo)`` pairs and ``streams`` their
    per-task RNG sources, exactly as the thread executor builds them —
    Generators on the plain path, SeedSequence children on the retry path —
    so results are bit-identical to serial and thread modes.  Returns
    ``(results, seconds, num_workers, records)`` where ``results[t]`` is
    the task's flat probability vector (``None`` for a variant degraded
    under ``on_exhausted="degrade"``), ``seconds`` sums every worker-clock
    delta (the device-time ledger), and ``records`` is the per-task list
    of :class:`~repro.cutting.resilience.AttemptRecord` lists for the
    parent to merge into its ledger.  Raises
    :class:`~repro.exceptions.WorkerPoolError` if a worker dies.
    """
    workers = max_workers or os.cpu_count() or 1
    entries, banks = export_cache_pool(pool)
    try:
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
        blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        call_bank = SharedArrayBank.pack(
            {"payload": np.frombuffer(blob, dtype=np.uint8)}
        )
        banks.append(call_bank)
        token = next(_CALL_TOKENS)
        work = [
            (token, call_bank.manifest, index, combo, stream)
            for (index, combo), stream in zip(tasks, streams)
        ]
        live = _acquire((resolve_start_method(start_method), workers))
        futures = []
        try:
            futures = [live.executor.submit(_worker_run, task) for task in work]
            out = [f.result() for f in futures]
        except BrokenProcessPool as exc:
            _discard(live)
            raise WorkerPoolError(
                "a process-pool worker died while running fragment tasks; "
                "the pool was discarded and the next call starts a fresh one"
            ) from exc
        finally:
            # on failure, tasks still running must not outlive the banks
            for f in futures:
                f.cancel()
            wait(futures)
            _release(live)
    finally:
        for bank in banks:
            bank.close()
            bank.unlink()
    results = [probs for probs, _, _ in out]
    seconds = float(sum(delta for _, delta, _ in out))
    records = [recs for _, _, recs in out]
    return results, seconds, max(1, min(workers, len(tasks))), records
