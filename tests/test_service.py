"""Content-addressed fragment identity and the request coalescer.

Covers :mod:`repro.cutting.fingerprint` (canonical fragment/backend
fingerprints, the shared :class:`FragmentStore`) and
:mod:`repro.parallel.service` (:class:`CutRunService`): the tentpole
acceptance law is that two concurrent identical requests execute each
shared fragment body exactly once — pinned by call count, not by timing.
"""

import threading
import time

import numpy as np
import pytest

from repro.backends import FakeHardwareBackend, IdealBackend, fake_5q_device
from repro.circuits import Circuit
from repro.core import cut_and_run_tree
from repro.cutting import (
    CutPoint,
    CutSpec,
    FragmentStore,
    RetryPolicy,
    backend_fingerprint,
    circuit_fingerprint,
    fragment_fingerprint,
    noise_fingerprint,
    partition_tree,
    run_tree_fragments,
)
from repro.exceptions import CutError, ServiceClosedError
from repro.parallel import CutRunService


def _circuit(theta=0.7):
    qc = Circuit(4, name="ghz4")
    qc.h(0).cx(0, 1).ry(theta, 1).cx(1, 2).cx(2, 3)
    return qc


SPEC = CutSpec((CutPoint(1, 2),))


def _tree(theta=0.7):
    return partition_tree(_circuit(theta), [SPEC])


def _bounded(fn, timeout=60.0):
    """``(result, error)`` of ``fn()`` run on a daemon thread; fails the
    test instead of hanging if the call blocks past ``timeout`` seconds."""
    out = {}

    def work():
        try:
            out["result"] = fn()
        except BaseException as exc:  # handed to the asserting thread
            out["error"] = exc

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"call blocked for over {timeout} s"
    return out.get("result"), out.get("error")


class CountingBackend(FakeHardwareBackend):
    """fake_5q_device that counts batched variant executions."""

    def __init__(self):
        dev = fake_5q_device()
        super().__init__(dev.coupling, dev.noise_model, timing=dev.timing)
        self.tree_variant_calls = 0
        self._count_lock = threading.Lock()

    def run_tree_variants(self, *args, **kwargs):
        with self._count_lock:
            self.tree_variant_calls += 1
        return super().run_tree_variants(*args, **kwargs)


class TestFingerprints:
    def test_circuit_fingerprint_content_not_identity(self):
        assert circuit_fingerprint(_circuit()) == circuit_fingerprint(_circuit())
        assert circuit_fingerprint(_circuit()) != circuit_fingerprint(_circuit(0.71))

    def test_parameter_last_ulp_distinguished(self):
        theta = 0.7
        assert circuit_fingerprint(_circuit(theta)) != circuit_fingerprint(
            _circuit(np.nextafter(theta, 1.0))
        )

    def test_noise_fingerprint_tracks_rates(self):
        a = fake_5q_device(p2=1e-2).noise_model
        b = fake_5q_device(p2=1e-2).noise_model
        c = fake_5q_device(p2=2e-2).noise_model
        assert noise_fingerprint(a) == noise_fingerprint(b)
        assert noise_fingerprint(a) != noise_fingerprint(c)

    def test_backend_fingerprint_dispatch(self):
        assert backend_fingerprint(fake_5q_device()) == backend_fingerprint(
            fake_5q_device()
        )
        assert backend_fingerprint(fake_5q_device()) != backend_fingerprint(
            IdealBackend()
        )
        assert backend_fingerprint(fake_5q_device()) != backend_fingerprint(
            fake_5q_device(p01=0.5)
        )

    def test_fault_wrapper_is_transparent(self):
        from repro.backends import FaultInjectionBackend, FaultPlan

        inner = fake_5q_device()
        wrapped = FaultInjectionBackend(inner, FaultPlan(seed=3))
        assert backend_fingerprint(wrapped) == backend_fingerprint(inner)

    def test_fragment_fingerprint_spans_trees(self):
        t1, t2 = _tree(), _tree()
        be = fake_5q_device()
        for f1, f2 in zip(t1.fragments, t2.fragments):
            assert f1 is not f2
            assert fragment_fingerprint(f1, be) == fragment_fingerprint(f2, be)
        # different fragments of one tree never collide
        prints = {fragment_fingerprint(f, be) for f in t1.fragments}
        assert len(prints) == t1.num_fragments

    def test_fragment_fingerprint_tracks_dtype(self):
        frag = _tree().fragments[0]
        be = IdealBackend()
        assert fragment_fingerprint(frag, be, np.float64) != fragment_fingerprint(
            frag, be, np.float32
        )


class TestFragmentStore:
    def test_pool_rebinds_to_each_consumer(self):
        t1, t2 = _tree(), _tree()
        be = fake_5q_device()
        store = FragmentStore()
        p1, p2 = store.pool_for(t1, be), store.pool_for(t2, be)
        for i in range(t1.num_fragments):
            assert p1[i].fragment is t1.fragments[i]
            assert p2[i].fragment is t2.fragments[i]
        assert store.stats() == {
            "bodies": t1.num_fragments,
            "hits": t1.num_fragments,
            "misses": t1.num_fragments,
        }

    def test_transpile_once_across_requests(self):
        """The cross-request law: N distinct bodies cost N transpiles no
        matter how many store-served requests execute them — and the
        records stay bit-identical to independent execution."""
        t1, t2 = _tree(), _tree()
        store = FragmentStore()
        be1, be2 = fake_5q_device(), fake_5q_device()
        d1 = run_tree_fragments(
            t1, be1, shots=200, seed=5, pool=store.pool_for(t1, be1)
        )
        pool2 = store.pool_for(t2, be2)
        d2 = run_tree_fragments(t2, be2, shots=200, seed=5, pool=pool2)
        assert [pool2[i].stats["transpiles"] for i in range(t2.num_fragments)] == [
            1
        ] * t2.num_fragments
        for r1, r2 in zip(d1.records, d2.records):
            assert set(r1) == set(r2)
            for k in r1:
                np.testing.assert_array_equal(r1[k], r2[k])

    def test_rebind_before_warm_still_shares(self):
        """A clone handed out before anyone warmed the canonical cache
        must still see the warm-up (the shared-box law)."""
        t1, t2 = _tree(), _tree()
        be = IdealBackend()
        store = FragmentStore()
        p1 = store.pool_for(t1, be)
        p2 = store.pool_for(t2, be)  # cloned while everything is cold
        run_tree_fragments(t1, be, shots=100, seed=1, pool=p1)
        assert p2[0]._columns is not None
        assert p2[0]._columns is p1[0]._columns

    def test_uncacheable_backend_yields_none(self):
        from repro.backends import trajectory_5q_device

        store = FragmentStore()
        assert store.pool_for(_tree(), trajectory_5q_device(6)) is None
        assert store.stats()["bodies"] == 0


class TestCutRunService:
    def test_solo_request_bit_identical_to_plain_pipeline(self):
        plain = cut_and_run_tree(
            _circuit(), fake_5q_device(), [SPEC], shots=300, seed=7
        )
        with CutRunService(fake_5q_device()) as svc:
            solo = svc.run(_circuit(), specs=[SPEC], shots=300, seed=7)
        np.testing.assert_array_equal(plain.probabilities, solo.probabilities)
        assert plain.device_seconds == solo.device_seconds
        assert plain.costs == solo.costs

    def test_identical_concurrent_requests_execute_bodies_once(self):
        """Tentpole acceptance: two concurrent identical requests execute
        each shared fragment body exactly once — pinned by the backend's
        batched-call count, one per fragment."""
        backend = CountingBackend()
        plain = cut_and_run_tree(
            _circuit(), fake_5q_device(), [SPEC], shots=300, seed=7
        )
        with CutRunService(backend, batch_window=0.05) as svc:
            kwargs = dict(specs=[SPEC], shots=300, seed=7)
            a, b = svc.run_many([(_circuit(), kwargs), (_circuit(), kwargs)])
            stats = svc.stats()
        num_fragments = a.tree.num_fragments
        assert backend.tree_variant_calls == num_fragments  # once per body
        assert stats["fragment_jobs"] == num_fragments
        assert stats["coalesced"] == num_fragments  # request B joined every job
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        np.testing.assert_array_equal(a.probabilities, plain.probabilities)
        assert a.device_seconds == b.device_seconds

    def test_different_seeds_do_not_coalesce(self):
        backend = CountingBackend()
        with CutRunService(backend, batch_window=0.05) as svc:
            a, b = svc.run_many(
                [
                    (_circuit(), dict(specs=[SPEC], shots=300, seed=7)),
                    (_circuit(), dict(specs=[SPEC], shots=300, seed=8)),
                ]
            )
            stats = svc.stats()
        assert stats["coalesced"] == 0
        assert backend.tree_variant_calls == 2 * a.tree.num_fragments
        assert not np.array_equal(a.probabilities, b.probabilities)

    def test_coalesced_retry_requests_share_ledgers(self):
        policy = RetryPolicy(max_attempts=3)
        plain = cut_and_run_tree(
            _circuit(), fake_5q_device(), [SPEC], shots=200, seed=4, retry=policy
        )
        with CutRunService(fake_5q_device(), batch_window=0.05) as svc:
            kwargs = dict(specs=[SPEC], shots=200, seed=4, retry=policy)
            a, b = svc.run_many([(_circuit(), kwargs), (_circuit(), kwargs)])
        np.testing.assert_array_equal(plain.probabilities, a.probabilities)
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert a.costs["retry"] == plain.costs["retry"]

    def test_request_errors_propagate_to_every_joiner(self):
        with CutRunService(fake_5q_device()) as svc:
            with pytest.raises(CutError):
                svc.run(_circuit(), specs=[SPEC], shots=100, on_exhausted="degrade")

    def test_run_and_submit_after_close_raise_typed_error(self):
        svc = CutRunService(fake_5q_device())
        svc.close()
        _, error = _bounded(
            lambda: svc.run(_circuit(), specs=[SPEC], shots=100, seed=1)
        )
        assert isinstance(error, ServiceClosedError)
        with pytest.raises(ServiceClosedError):
            svc.submit(_circuit(), specs=[SPEC], shots=100, seed=1)
        with pytest.raises(ServiceClosedError):
            svc.run_fragments(_tree(), svc.backend, shots=100, seed=1)

    def test_close_fails_pending_jobs_instead_of_stranding_them(self):
        # a long batch window keeps the request's jobs pending until close()
        svc = CutRunService(fake_5q_device(), batch_window=60.0)
        handle = svc.submit(_circuit(), specs=[SPEC], shots=100, seed=1)
        deadline = time.monotonic() + 30.0
        while svc.stats()["fragment_jobs"] < _tree().num_fragments:
            assert time.monotonic() < deadline, "jobs never reached the queue"
            time.sleep(0.01)
        _, error = _bounded(svc.close)
        assert error is None
        _, error = _bounded(handle.result)
        assert isinstance(error, ServiceClosedError)

    def test_failed_job_is_not_replayed_to_later_requests(self):
        """One transient failure reaches the request that hit it; the next
        identical request executes again and matches the plain pipeline."""
        from repro.exceptions import BackendError

        class FailsOnce(CountingBackend):
            def run_tree_variants(self, *args, **kwargs):
                if self.tree_variant_calls == 0:
                    self.tree_variant_calls += 1
                    raise BackendError("first call fails")
                return super().run_tree_variants(*args, **kwargs)

        backend = FailsOnce()
        kwargs = dict(specs=[SPEC], shots=300, seed=7)
        plain = cut_and_run_tree(_circuit(), fake_5q_device(), **kwargs)
        with CutRunService(backend) as svc:
            _, error = _bounded(lambda: svc.run(_circuit(), **kwargs))
            assert isinstance(error, BackendError)
            again, error = _bounded(lambda: svc.run(_circuit(), **kwargs))
            assert error is None
        np.testing.assert_array_equal(again.probabilities, plain.probabilities)
        # the failed job re-ran; the job that succeeded was served memoised
        assert backend.tree_variant_calls == again.tree.num_fragments + 1

    def test_runner_rejects_foreign_backend_and_checkpoint(self):
        with CutRunService(fake_5q_device()) as svc:
            with pytest.raises(CutError, match="service backend"):
                svc.run_fragments(_tree(), fake_5q_device(), shots=10)
            with pytest.raises(CutError, match="checkpoint"):
                svc.run_fragments(
                    _tree(), svc.backend, shots=10, checkpoint=object()
                )


class TestPipelineExecutorKnob:
    def test_serial_default_unchanged(self):
        a = cut_and_run_tree(_circuit(), fake_5q_device(), [SPEC], shots=300, seed=7)
        b = cut_and_run_tree(
            _circuit(),
            fake_5q_device(),
            [SPEC],
            shots=300,
            seed=7,
            executor="serial",
        )
        np.testing.assert_array_equal(a.probabilities, b.probabilities)

    def test_thread_equals_process(self):
        runs = {
            mode: cut_and_run_tree(
                _circuit(),
                fake_5q_device,
                [SPEC],
                shots=300,
                seed=7,
                executor=mode,
                max_workers=2,
            )
            for mode in ("thread", "process")
        }
        np.testing.assert_array_equal(
            runs["thread"].probabilities, runs["process"].probabilities
        )
        assert np.isclose(
            runs["thread"].device_seconds, runs["process"].device_seconds
        )

    def test_non_factory_backend_rejected(self):
        with pytest.raises(CutError, match="factory"):
            cut_and_run_tree(
                _circuit(), fake_5q_device(), [SPEC], shots=50, executor="thread"
            )

    def test_checkpoint_requires_serial(self, tmp_path):
        from repro.cutting.io import TreeCheckpoint

        tree = _tree()
        with pytest.raises(CutError, match="serial"):
            cut_and_run_tree(
                _circuit(),
                fake_5q_device,
                [SPEC],
                shots=50,
                executor="thread",
                checkpoint=TreeCheckpoint(tmp_path / "ck", tree, 50),
            )

    def test_unknown_executor_rejected(self):
        with pytest.raises(CutError, match="executor"):
            cut_and_run_tree(
                _circuit(), fake_5q_device(), [SPEC], shots=50, executor="mpi"
            )

    def test_fragment_store_knob_shares_across_calls(self):
        store = FragmentStore()
        be = fake_5q_device()
        a = cut_and_run_tree(
            _circuit(), be, [SPEC], shots=300, seed=7, fragment_store=store
        )
        hits_after_first = store.stats()["hits"]
        b = cut_and_run_tree(
            _circuit(), be, [SPEC], shots=300, seed=7, fragment_store=store
        )
        np.testing.assert_array_equal(a.probabilities, b.probabilities)
        assert store.stats()["hits"] > hits_after_first
        assert store.stats()["bodies"] == a.tree.num_fragments
