"""Request coalescing: many concurrent cut runs, one execution per body.

:class:`CutRunService` fronts one backend with a shared
:class:`~repro.cutting.fingerprint.FragmentStore` and a single dispatcher
thread.  Concurrent :meth:`~CutRunService.run`/:meth:`~CutRunService.submit`
calls are decomposed into **fragment jobs** — one per (fragment body,
variant list, shots, RNG stream, retry policy) — and jobs whose content
address matches an in-flight or completed job attach to it instead of
executing again: two callers cutting the same circuit with the same seed
cost one set of device executions, not two.  Jobs that are genuinely
distinct still share the store's warmed caches, so at minimum each distinct
fragment body is transpiled once per service, not once per request.

The dispatcher drains every job that arrived within ``batch_window``
seconds of the first pending one in a single cycle, so variant executions
for the same backend batch across requests (``stats()["dispatch_batches"]``
counts the cycles).  Execution inside a job replicates
:func:`~repro.cutting.execution.run_tree_fragments` exactly — same batched
:meth:`~repro.backends.base.Backend.run_tree_variants` call, same RNG
stream handling on both the plain and the retry path — so a solo request
through the service is bit-identical (records, attempt ledger,
``modeled_seconds``) to calling the plain function.

Coalescing identity is *content*, not object identity: the job key hashes
the fragment fingerprint (circuit + cut-group layouts + backend physics),
the exact variant combos, the shot budget, the SHA-256 of the request's
per-fragment RNG state, the retry policy and the exhaustion mode.  Requests
differing in any of these run separately.  A job that raised is forgotten
as it fails, so a later identical request executes again instead of
replaying the error.

Lifecycle: :meth:`CutRunService.close` fails every job not yet executed
with :class:`~repro.exceptions.ServiceClosedError`, so no waiter is
stranded, and requests made after it raise the same error.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field

import numpy as np

from repro.cutting.execution import (
    TreeFragmentData,
    _split_joint_probs,
    _tree_variant_lists,
)
from repro.cutting.fingerprint import FragmentStore, fragment_fingerprint
from repro.exceptions import CutError, ServiceClosedError

__all__ = ["CutRunService"]


def _rng_state_key(rng) -> str:
    """Stable digest of a Generator's full bit-generator state."""
    state = rng.bit_generator.state
    return hashlib.sha256(repr(sorted(state.items())).encode()).hexdigest()


@dataclass
class _FragmentJob:
    """One coalescable unit of device work: a fragment's variant family."""

    key: tuple
    tree: object
    index: int
    combos: list
    shots: int
    rng: object  # the submitting request's frag_rng (identical across joiners)
    cache: object
    policy: object
    on_exhausted: str
    done: threading.Event = field(default_factory=threading.Event)
    probs: "list | None" = None  # flat per-variant vectors (None = degraded)
    dead: list = field(default_factory=list)
    seconds: float = 0.0
    records: list = field(default_factory=list)  # AttemptRecords, task order
    error: "BaseException | None" = None


class CutRunService:
    """Coalescing front end for concurrent cut-and-run requests.

    Parameters
    ----------
    backend:
        The device every request executes on.  All device work happens on
        the service's single dispatcher thread, so the backend needs no
        internal locking.
    batch_window:
        Seconds the dispatcher waits after the first pending job before
        draining, letting concurrent requests land in the same dispatch
        batch (and coalesce if identical).
    store:
        The shared :class:`~repro.cutting.fingerprint.FragmentStore`
        (a fresh one by default).

    Use as a context manager or call :meth:`close` to stop the dispatcher.
    """

    def __init__(self, backend, batch_window: float = 0.01, store=None) -> None:
        self.backend = backend
        self.batch_window = float(batch_window)
        self.store = store if store is not None else FragmentStore()
        self._lock = threading.Lock()
        self._jobs: dict[tuple, _FragmentJob] = {}
        self._pending: list[_FragmentJob] = []
        self._wake = threading.Event()
        self._closed = threading.Event()
        self.stats_requests = 0
        self.stats_fragment_jobs = 0
        self.stats_coalesced = 0
        self.stats_dispatch_batches = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="cutrun-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "CutRunService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the dispatcher thread (idempotent).

        Jobs still pending fail with
        :class:`~repro.exceptions.ServiceClosedError`; later
        :meth:`run`/:meth:`submit` calls raise it.
        """
        with self._lock:
            self._closed.set()
            pending, self._pending = self._pending, []
        for job in pending:
            self._fail(job, ServiceClosedError("CutRunService closed first"))
        self._wake.set()
        self._dispatcher.join(timeout=5.0)

    def _check_open(self) -> None:
        if self._closed.is_set():
            raise ServiceClosedError("CutRunService is closed")

    def stats(self) -> dict:
        with self._lock:
            return {
                "requests": self.stats_requests,
                "fragment_jobs": self.stats_fragment_jobs,
                "coalesced": self.stats_coalesced,
                "dispatch_batches": self.stats_dispatch_batches,
                **{f"store_{k}": v for k, v in self.store.stats().items()},
            }

    # -- request API ---------------------------------------------------
    def run(self, circuit, **kwargs):
        """Cut, execute and reconstruct ``circuit`` through the service.

        A blocking :func:`~repro.core.pipeline.cut_and_run_tree` call with
        the service's backend, fragment store and coalescing runner wired
        in; accepts the same keyword arguments (``specs``, ``shots``,
        ``golden``, ``seed``, ``retry``, ...).
        """
        from repro.core.pipeline import cut_and_run_tree

        with self._lock:
            self._check_open()
            self.stats_requests += 1
        return cut_and_run_tree(
            circuit,
            self.backend,
            runner=self.run_fragments,
            fragment_store=self.store,
            **kwargs,
        )

    def submit(self, circuit, **kwargs):
        """Start :meth:`run` on a worker thread; returns a joinable handle.

        The handle's ``result()`` blocks until the request finishes and
        re-raises any failure.  Submitting several identical requests
        within ``batch_window`` is the intended coalescing pattern.
        """
        self._check_open()
        return _Request(self, circuit, kwargs)

    def run_many(self, requests):
        """Run many requests concurrently; returns results in order.

        ``requests`` is an iterable of ``(circuit, kwargs)`` pairs.  All
        are submitted before any is joined, so identical requests coalesce.
        """
        handles = [self.submit(circuit, **kwargs) for circuit, kwargs in requests]
        return [handle.result() for handle in handles]

    # -- the coalescing runner (run_tree_fragments drop-in) ------------
    def run_fragments(
        self,
        tree,
        backend,
        shots: int,
        variants=None,
        seed=None,
        pool=None,
        dtype=np.float64,
        retry=None,
        ledger=None,
        on_exhausted: str = "raise",
        checkpoint=None,
    ) -> TreeFragmentData:
        """Coalescing drop-in for :func:`~repro.cutting.execution
        .run_tree_fragments`.

        Same signature, records, RNG streams and metadata; fragment
        families whose content address matches an in-flight or completed
        job are served from that job's results without re-executing.
        ``backend`` must be the service's backend (the dispatcher owns all
        device work); ``checkpoint`` is unsupported here — checkpointing a
        coalesced execution would persist another request's work.
        """
        from repro.utils.rng import as_generator, derive_rng

        if backend is not self.backend:
            raise CutError("CutRunService.run_fragments requires the service backend")
        if checkpoint is not None:
            raise CutError("checkpointing is not supported through CutRunService")
        if on_exhausted not in ("raise", "degrade"):
            raise CutError(
                f"on_exhausted must be 'raise' or 'degrade', got {on_exhausted!r}"
            )
        if on_exhausted == "degrade" and retry is None:
            raise CutError("on_exhausted='degrade' requires a retry policy")
        variants = _tree_variant_lists(tree, variants)
        if pool is None:
            pool = self.store.pool_for(tree, self.backend, dtype)
        if retry is not None and ledger is None:
            from repro.cutting.resilience import AttemptLedger

            ledger = AttemptLedger()

        rng = as_generator(seed)
        jobs: list["_FragmentJob | None"] = []
        for i, combos in enumerate(variants):
            # burn fragment i's stream even on skips — exactly like the
            # serial runner, so stream derivation never shifts
            frag_rng = derive_rng(rng, 0x60 + i)
            if combos is None:
                jobs.append(None)
                continue
            frag = tree.fragments[i]
            key = (
                fragment_fingerprint(frag, self.backend, dtype),
                tuple(combos),
                int(shots),
                _rng_state_key(frag_rng),
                retry,
                on_exhausted,
                np.dtype(dtype).str,
            )
            cache = pool[i] if pool is not None else None
            jobs.append(
                self._submit_job(
                    key, tree, i, combos, shots, frag_rng, cache, retry, on_exhausted
                )
            )

        records: list[dict] = []
        degraded: list[tuple[int, tuple]] = []
        seconds = 0.0
        for i, job in enumerate(jobs):
            if job is None:
                records.append({})
                continue
            job.done.wait()
            if job.error is not None:
                raise job.error
            frag = tree.fragments[i]
            combos = variants[i]
            records.append(
                {
                    combo: _split_joint_probs(
                        probs, frag.out_local, frag.cut_local, dtype
                    )
                    for combo, probs in zip(combos, job.probs)
                    if probs is not None
                }
            )
            degraded.extend((i, combo) for combo in job.dead)
            seconds += job.seconds
            if ledger is not None:
                for r in job.records:
                    ledger.record(
                        r.site,
                        r.attempt,
                        r.outcome,
                        latency=r.latency,
                        backoff=r.backoff,
                        error=r.error,
                    )

        metadata = {
            "backend": getattr(self.backend, "name", "backend"),
            "variants_per_fragment": [
                0 if c is None else len(c) for c in variants
            ],
        }
        if degraded:
            metadata["degraded_sites"] = degraded
        if ledger is not None:
            metadata["retry"] = ledger.summary()
        return TreeFragmentData(
            tree=tree,
            records=records,
            shots_per_variant=shots,
            modeled_seconds=seconds,
            metadata=metadata,
        )

    # -- job plumbing --------------------------------------------------
    def _submit_job(
        self, key, tree, index, combos, shots, rng, cache, policy, on_exhausted
    ) -> _FragmentJob:
        with self._lock:
            self._check_open()
            job = self._jobs.get(key)
            if job is not None:
                self.stats_coalesced += 1
                return job
            job = _FragmentJob(
                key=key,
                tree=tree,
                index=index,
                combos=list(combos),
                shots=shots,
                rng=rng,
                cache=cache,
                policy=policy,
                on_exhausted=on_exhausted,
            )
            self._jobs[key] = job
            self._pending.append(job)
            self.stats_fragment_jobs += 1
        self._wake.set()
        return job

    def _dispatch_loop(self) -> None:
        while True:
            self._wake.wait()
            with self._lock:
                if self._closed.is_set():
                    return
                self._wake.clear()
            # let concurrent requests land in this batch (close() cuts it
            # short: its pending jobs have already failed)
            if self.batch_window > 0:
                self._closed.wait(self.batch_window)
            with self._lock:
                batch, self._pending = self._pending, []
                if batch:
                    self.stats_dispatch_batches += 1
            for job in batch:
                try:
                    self._check_open()
                    self._execute(job)
                except BaseException as exc:  # delivered to every waiter
                    self._fail(job, exc)
                else:
                    job.done.set()

    def _fail(self, job: _FragmentJob, error: BaseException) -> None:
        """Deliver ``error`` to the job's waiters and forget the job, so a
        later identical request executes instead of replaying the error."""
        job.error = error
        with self._lock:
            if self._jobs.get(job.key) is job:
                del self._jobs[job.key]
        job.done.set()

    def _execute(self, job: _FragmentJob) -> None:
        backend = self.backend
        frag = job.tree.fragments[job.index]
        t0 = backend.clock.now
        if job.policy is None:
            results = backend.run_tree_variants(
                job.tree,
                job.index,
                job.combos,
                shots=job.shots,
                seed=job.rng,
                cache=job.cache,
            )
            job.probs = [res.probabilities() for res in results]
        else:
            from repro.cutting.resilience import RetryEngine
            from repro.utils.rng import spawn_seed_sequences

            engine = RetryEngine(job.policy)
            children = spawn_seed_sequences(job.rng, len(job.combos))
            sites = [("tree", job.index, a, s) for a, s in job.combos]

            def batch_call(streams):
                return backend.run_tree_variants(
                    job.tree,
                    job.index,
                    job.combos,
                    shots=job.shots,
                    seed=streams,
                    cache=job.cache,
                )

            def single_call(j, stream):
                return backend.run_tree_variants(
                    job.tree,
                    job.index,
                    [job.combos[j]],
                    shots=job.shots,
                    seed=[stream],
                    cache=job.cache,
                )[0]

            results, dead_idx = engine.run_batch(
                sites,
                children,
                batch_call,
                single_call,
                expected_shots=job.shots,
                expected_qubits=frag.num_qubits,
                clock=backend.clock,
                breaker_key=job.index,
                on_exhausted=job.on_exhausted,
            )
            job.probs = [
                None if res is None else res.probabilities() for res in results
            ]
            job.dead = [job.combos[j] for j in dead_idx]
            job.records = list(engine.ledger.records)
        job.seconds = backend.clock.now - t0


class _Request:
    """A submitted request: joins the worker thread and re-raises."""

    def __init__(self, service: CutRunService, circuit, kwargs: dict) -> None:
        self._result = None
        self._error: "BaseException | None" = None

        def work() -> None:
            try:
                self._result = service.run(circuit, **kwargs)
            except BaseException as exc:
                self._error = exc

        self._thread = threading.Thread(target=work, daemon=True)
        self._thread.start()

    def result(self):
        self._thread.join()
        if self._error is not None:
            raise self._error
        return self._result
