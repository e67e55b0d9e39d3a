"""Tests for fragment execution, shot allocation and the parallel executor."""

import os

import numpy as np
import pytest

from repro.backends import IdealBackend, fake_5q_device
from repro.cutting import allocate_shots
from repro.cutting.execution import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.exceptions import CutError
from repro.metrics import total_variation
from repro.parallel import parallel_map, run_tree_fragments_parallel
from repro.sim import simulate_statevector

from tests.helpers import pair_tree


@pytest.fixture
def simple_tree(simple_cut_pair):
    qc, spec, _ = simple_cut_pair
    return qc, pair_tree(qc, spec)


class TestRunTreeFragments:
    """Execution of the single cut as the 2-node tree."""

    def test_default_variant_counts(self, simple_tree):
        _, tree = simple_tree
        data = run_tree_fragments(tree, IdealBackend(), shots=100, seed=0)
        assert [len(r) for r in data.records] == [3, 6]
        assert data.num_variants == 9
        assert data.total_shots == 900

    def test_measuring_records_shape_and_mass(self, simple_tree):
        _, tree = simple_tree
        data = run_tree_fragments(tree, IdealBackend(), shots=1000, seed=1)
        root = tree.fragments[0]
        for arr in data.records[0].values():
            assert arr.shape == (1 << root.n_out, 1 << root.num_meas)
            assert np.isclose(arr.sum(), 1.0)

    def test_preparing_records(self, simple_tree):
        _, tree = simple_tree
        data = run_tree_fragments(tree, IdealBackend(), shots=1000, seed=2)
        leaf = tree.fragments[1]
        for vec in data.records[1].values():
            assert vec.shape == (1 << leaf.n_out, 1)
            assert np.isclose(vec.sum(), 1.0)

    def test_custom_variant_sets(self, simple_tree):
        _, tree = simple_tree
        variants = [[((), ("X",))], [(("Z+",), ()), (("Z-",), ())]]
        data = run_tree_fragments(
            tree, IdealBackend(), shots=100, variants=variants, seed=3
        )
        assert set(data.records[0]) == {((), ("X",))}
        assert set(data.records[1]) == {(("Z+",), ()), (("Z-",), ())}

    def test_empty_variants_rejected(self, simple_tree):
        _, tree = simple_tree
        with pytest.raises(CutError):
            run_tree_fragments(
                tree, IdealBackend(), shots=10, variants=[[], None], seed=0
            )

    def test_exact_matches_high_shot_limit(self, simple_tree):
        _, tree = simple_tree
        exact = exact_tree_data(tree)
        sampled = run_tree_fragments(tree, IdealBackend(), shots=300_000, seed=4)
        for key, ref in exact.records[0].items():
            assert np.abs(ref - sampled.records[0][key]).max() < 0.01

    def test_device_seconds_tracked(self, simple_tree):
        _, tree = simple_tree
        dev = fake_5q_device()
        data = run_tree_fragments(tree, dev, shots=100, seed=5)
        assert data.modeled_seconds > 0
        assert np.isclose(data.modeled_seconds, dev.clock.now)

    def test_fragment_variants_list_record_keys(self, simple_tree):
        _, tree = simple_tree
        variants = [[((), ("Y",)), ((), ("X",))], [(("X-",), ())]]
        data = run_tree_fragments(
            tree, IdealBackend(), shots=50, variants=variants, seed=6
        )
        assert data.fragment_variants(0) == variants[0]
        assert data.fragment_variants(1) == variants[1]
        assert data.num_variants == 3 and data.total_shots == 150

    def test_variant_list_per_fragment_required(self, simple_tree):
        _, tree = simple_tree
        with pytest.raises(CutError):
            run_tree_fragments(
                tree, IdealBackend(), shots=10, variants=[None], seed=0
            )
        with pytest.raises(CutError):
            run_tree_fragments(
                tree, IdealBackend(), shots=10, variants=[None, None], seed=0
            )

    def test_chain_data_rebadges_tree_data(self, simple_tree):
        from repro.cutting.execution import ChainFragmentData, TreeFragmentData

        _, tree = simple_tree
        data = run_tree_fragments(tree, IdealBackend(), shots=100, seed=7)
        chain = ChainFragmentData._from_tree_data(data)
        assert isinstance(chain, TreeFragmentData)
        assert chain.chain is data.tree and chain.records is data.records
        assert chain.total_shots == data.total_shots
        assert chain.modeled_seconds == data.modeled_seconds
        np.testing.assert_array_equal(
            reconstruct_tree_distribution(chain),
            reconstruct_tree_distribution(data),
        )


class TestAllocateShots:
    def test_uniform(self):
        per, report = allocate_shots(3, 6, shots_per_variant=1000)
        assert per == 1000
        assert report["total_executions"] == 9000

    def test_fixed_total(self):
        per, report = allocate_shots(3, 6, total_shots=9000, scheme="fixed_total")
        assert per == 1000

    def test_exactly_one_budget_arg(self):
        with pytest.raises(CutError):
            allocate_shots(3, 6)
        with pytest.raises(CutError):
            allocate_shots(3, 6, shots_per_variant=10, total_shots=100)

    def test_budget_too_small(self):
        with pytest.raises(CutError):
            allocate_shots(3, 6, total_shots=5)

    def test_unknown_scheme(self):
        with pytest.raises(CutError):
            allocate_shots(3, 6, shots_per_variant=10, scheme="greedy")


class TestProportionalAllocation:
    """The row-fan-in weighted scheme the module docstring documents."""

    def test_k1_full_pools(self):
        # K=1: settings weigh 2 each (total 6); preps weigh 2 (Z±) and
        # 1 (X±/Y±), total 6 + 8 = 14.  Budget 1400 -> unit weight 100.
        per, report = allocate_shots(
            3, 6, total_shots=1400, scheme="proportional"
        )
        assert report["upstream_shots"] == [200, 200, 200]
        down = report["downstream_shots"]
        assert down[("Z+",)] == down[("Z-",)] == 200
        for code in ("X+", "X-", "Y+", "Y-"):
            assert down[(code,)] == 100
        assert report["total_executions"] == 1400
        assert per == 100  # the scalar is the smallest share

    def test_budget_conserved_with_rounding(self):
        _, report = allocate_shots(
            3, 6, total_shots=1000, scheme="proportional"
        )
        assert (
            sum(report["upstream_shots"])
            + sum(report["downstream_shots"].values())
            == 1000
        )

    def test_explicit_inits_reduced_pool(self):
        # a Y-golden cut drops Y±: 4 preps left, weights Z±=2, X±=1
        inits = [("Z+",), ("Z-",), ("X+",), ("X-",)]
        per, report = allocate_shots(
            3, 4, total_shots=1200, scheme="proportional", inits=inits
        )
        down = report["downstream_shots"]
        assert down[("Z+",)] == 2 * down[("X+",)]
        assert report["total_executions"] == 1200

    def test_requires_total_shots(self):
        with pytest.raises(CutError, match="total_shots"):
            allocate_shots(
                3, 6, shots_per_variant=100, scheme="proportional"
            )

    def test_non_pool_counts_need_inits(self):
        with pytest.raises(CutError, match="inits"):
            allocate_shots(3, 5, total_shots=1000, scheme="proportional")

    def test_inits_length_mismatch(self):
        with pytest.raises(CutError, match="preparation tuples"):
            allocate_shots(
                3,
                6,
                total_shots=1000,
                scheme="proportional",
                inits=[("Z+",)],
            )

    def test_budget_too_small(self):
        with pytest.raises(CutError, match="too small"):
            allocate_shots(3, 6, total_shots=8, scheme="proportional")

    def test_tree_allocation_rejects_proportional(self):
        from repro.cutting.shots import allocate_tree_shots

        with pytest.raises(CutError, match="proportional"):
            allocate_tree_shots([3, 6], total_shots=900, scheme="proportional")


class TestParallel:
    def test_parallel_map_order(self):
        out = parallel_map(lambda x: x * x, list(range(20)))
        assert out == [x * x for x in range(20)]

    def test_serial_mode(self):
        out = parallel_map(lambda x: x + 1, [1, 2, 3], mode="serial")
        assert out == [2, 3, 4]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            parallel_map(lambda x: x, [1, 2], mode="gpu")

    def test_process_mode_is_not_a_map_mode(self):
        # process fan-out lives behind the fragment executors only
        with pytest.raises(ValueError, match="process"):
            parallel_map(abs, [1, 2], mode="process")

    def test_parallel_fragments_match_serial_reconstruction(self, simple_tree):
        qc, tree = simple_tree
        truth = simulate_statevector(qc).probabilities()
        data = run_tree_fragments_parallel(
            tree, IdealBackend, shots=100_000, seed=9, max_workers=4
        )
        p = reconstruct_tree_distribution(data, postprocess="clip")
        assert total_variation(p, truth) < 0.01

    def test_parallel_sums_device_time(self, simple_tree):
        _, tree = simple_tree
        data = run_tree_fragments_parallel(
            tree, fake_5q_device, shots=100, seed=1, max_workers=2
        )
        assert data.modeled_seconds > 0
        assert data.metadata["parallel"] is True

    def test_parallel_fragments_reject_unknown_mode(self, simple_tree):
        _, tree = simple_tree
        with pytest.raises(ValueError):
            run_tree_fragments_parallel(
                tree, IdealBackend, shots=100, seed=0, mode="gpu"
            )


class TestChainParallelExecutor:
    """Regression (ROADMAP/docstring contract): chain fragments share the
    warmed cache pool read-only across workers, so ``mode="serial"`` and
    ``mode="thread"`` are bit-identical for chains."""

    @staticmethod
    def _chain(seed=81, **kwargs):
        from repro.cutting import partition_chain
        from repro.harness.scaling import chain_cut_circuit

        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=seed, **kwargs
        )
        return qc, partition_chain(qc, specs)

    @staticmethod
    def _assert_identical(a, b):
        for i in range(a.chain.num_fragments):
            assert set(a.records[i]) == set(b.records[i])
            for k in a.records[i]:
                np.testing.assert_array_equal(a.records[i][k], b.records[i][k])

    @pytest.mark.parametrize("factory", [IdealBackend, fake_5q_device])
    def test_serial_equals_thread(self, factory):
        from repro.parallel import run_chain_fragments_parallel

        _, chain = self._chain()
        a = run_chain_fragments_parallel(
            chain, factory, shots=400, seed=5, max_workers=4, mode="thread"
        )
        b = run_chain_fragments_parallel(
            chain, factory, shots=400, seed=5, mode="serial"
        )
        self._assert_identical(a, b)
        assert a.metadata["cached"] and b.metadata["cached"]

    def test_parallel_chain_reconstructs_truth(self):
        from repro.cutting.reconstruction import reconstruct_chain_distribution
        from repro.parallel import run_chain_fragments_parallel

        qc, chain = self._chain(seed=82)
        truth = simulate_statevector(qc).probabilities()
        data = run_chain_fragments_parallel(
            chain, IdealBackend, shots=100_000, seed=9, max_workers=4
        )
        p = reconstruct_chain_distribution(data, postprocess="clip")
        assert total_variation(p, truth) < 0.02
        assert data.modeled_seconds >= 0
        assert data.metadata["parallel"] is True


class TestTreeParallelExecutor:
    """Satellite (PR 5): the tree cache pool is warmed once by the probe
    backend and shared read-only across workers, so ``mode="serial"`` and
    ``mode="thread"`` are bit-identical for branched fragment trees —
    mirroring the chain regression above."""

    @staticmethod
    def _tree(seed=83, parents=(0, 0, 1, 1)):
        from repro.cutting import partition_tree
        from repro.harness.scaling import tree_cut_circuit

        qc, specs = tree_cut_circuit(
            list(parents), 1, fresh_per_fragment=2, depth=2, seed=seed
        )
        return qc, partition_tree(qc, specs)

    @staticmethod
    def _assert_identical(a, b):
        for i in range(a.tree.num_fragments):
            assert set(a.records[i]) == set(b.records[i])
            for k in a.records[i]:
                np.testing.assert_array_equal(a.records[i][k], b.records[i][k])

    @pytest.mark.parametrize("factory", [IdealBackend, fake_5q_device])
    def test_serial_equals_thread(self, factory):
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        a = run_tree_fragments_parallel(
            tree, factory, shots=400, seed=5, max_workers=4, mode="thread"
        )
        b = run_tree_fragments_parallel(
            tree, factory, shots=400, seed=5, mode="serial"
        )
        self._assert_identical(a, b)
        assert a.metadata["cached"] and b.metadata["cached"]

    def test_retry_serial_equals_thread_under_faults(self):
        """Satellite (ISSUE 7): with a seeded transient fault plan and a
        retry policy, serial and threaded execution stay bit-identical to
        each other *and* to the fault-free retry-free run, and their
        attempt ledgers agree in canonical (order-insensitive) form."""
        from repro.backends import FaultInjectionBackend, FaultPlan
        from repro.cutting import AttemptLedger, RetryPolicy
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        plan = FaultPlan(seed=11, transient_rate=0.3, max_consecutive_transients=2)
        policy = RetryPolicy(max_attempts=4)
        clean = run_tree_fragments_parallel(
            tree, IdealBackend, shots=300, seed=5, mode="serial"
        )
        ledgers = {}
        runs = {}
        for mode in ("serial", "thread"):
            ledgers[mode] = AttemptLedger()
            runs[mode] = run_tree_fragments_parallel(
                tree,
                lambda: FaultInjectionBackend(IdealBackend(), plan),
                shots=300,
                seed=5,
                max_workers=4,
                mode=mode,
                retry=policy,
                ledger=ledgers[mode],
            )
        self._assert_identical(clean, runs["serial"])
        self._assert_identical(clean, runs["thread"])
        assert ledgers["serial"].canonical() == ledgers["thread"].canonical()
        assert ledgers["serial"].summary()["failures"] > 0  # faults fired

    def test_retry_healthy_parallel_is_bit_identical(self):
        from repro.cutting import AttemptLedger, RetryPolicy
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        clean = run_tree_fragments_parallel(
            tree, IdealBackend, shots=300, seed=5, mode="serial"
        )
        ledger = AttemptLedger()
        guarded = run_tree_fragments_parallel(
            tree,
            IdealBackend,
            shots=300,
            seed=5,
            max_workers=4,
            mode="thread",
            retry=RetryPolicy(),
            ledger=ledger,
        )
        self._assert_identical(clean, guarded)
        assert ledger.summary()["retries"] == 0
        assert ledger.summary()["failures"] == 0

    def test_degrade_without_retry_rejected(self):
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        with pytest.raises(ValueError):
            run_tree_fragments_parallel(
                tree, IdealBackend, shots=100, seed=0, on_exhausted="degrade"
            )

    def test_parallel_tree_reconstructs_truth(self):
        from repro.cutting.reconstruction import reconstruct_tree_distribution
        from repro.parallel import run_tree_fragments_parallel

        qc, tree = self._tree(seed=84)
        truth = simulate_statevector(qc).probabilities()
        data = run_tree_fragments_parallel(
            tree, IdealBackend, shots=100_000, seed=9, max_workers=4
        )
        p = reconstruct_tree_distribution(data, postprocess="clip")
        assert total_variation(p, truth) < 0.02
        assert data.metadata["parallel"] is True


class TestTreeProcessExecutor:
    """Tentpole (ISSUE 10): ``mode="process"`` ships the warmed cache pool
    to worker processes through shared memory and stays bit-identical to
    serial and thread execution — counts, RNG streams, clocks (to float
    summation order) — healthy and fault-injected alike."""

    _tree = staticmethod(TestTreeParallelExecutor._tree)
    _assert_identical = staticmethod(TestTreeParallelExecutor._assert_identical)

    @pytest.mark.parametrize("factory", [IdealBackend, fake_5q_device])
    def test_serial_thread_process_identical(self, factory):
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        runs = {
            mode: run_tree_fragments_parallel(
                tree, factory, shots=400, seed=5, max_workers=2, mode=mode
            )
            for mode in ("serial", "thread", "process")
        }
        self._assert_identical(runs["serial"], runs["process"])
        self._assert_identical(runs["thread"], runs["process"])
        assert np.isclose(
            runs["serial"].modeled_seconds, runs["process"].modeled_seconds
        )
        assert runs["process"].metadata["cached"]

    def test_retry_ledger_canonical_across_all_modes(self):
        """Satellite: under a seeded fault plan, process-mode per-worker
        ledgers merged in task order agree with serial/thread ledgers in
        canonical form, and the counts still match the fault-free run."""
        from repro.backends import FaultPlan, FaultyBackendFactory
        from repro.cutting import AttemptLedger, RetryPolicy
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0, 0))
        plan = FaultPlan(seed=11, transient_rate=0.3, max_consecutive_transients=2)
        factory = FaultyBackendFactory(IdealBackend, plan)
        policy = RetryPolicy(max_attempts=4)
        clean = run_tree_fragments_parallel(
            tree, IdealBackend, shots=300, seed=5, mode="serial"
        )
        ledgers = {}
        for mode in ("serial", "thread", "process"):
            ledgers[mode] = AttemptLedger()
            run = run_tree_fragments_parallel(
                tree,
                factory,
                shots=300,
                seed=5,
                max_workers=2,
                mode=mode,
                retry=policy,
                ledger=ledgers[mode],
            )
            self._assert_identical(clean, run)
        assert (
            ledgers["serial"].canonical()
            == ledgers["thread"].canonical()
            == ledgers["process"].canonical()
        )
        assert ledgers["process"].summary()["failures"] > 0  # faults fired

    def test_uncached_backend_runs_in_process_mode(self):
        """A backend with no cache hooks (trajectory sampling) executes
        every variant for real in the workers, still bit-identically."""
        from functools import partial

        from repro.backends import trajectory_5q_device
        from repro.parallel import run_tree_fragments_parallel

        factory = partial(trajectory_5q_device, num_trajectories=6)
        _, tree = self._tree(parents=(0,))
        a = run_tree_fragments_parallel(
            tree, factory, shots=200, seed=3, mode="serial"
        )
        b = run_tree_fragments_parallel(
            tree, factory, shots=200, seed=3, max_workers=2, mode="process"
        )
        self._assert_identical(a, b)
        assert not b.metadata["cached"]

    def test_worker_task_seconds_independent_of_prior_tasks(self):
        """A task's modelled seconds must not depend on what the worker
        ran before, or the parent's task-order sum changes with how the
        pool happened to distribute tasks."""
        from repro.parallel import pool

        _, tree = self._tree(parents=(0,))
        dev = fake_5q_device()
        pool._WORKER.update(
            token="call", backend=dev, tree=tree, caches=None, banks=[],
            shots=100, retry=None, on_exhausted="raise",
        )
        try:
            task = ("call", None, 0, ((), ("Y",)), np.random.default_rng(0))
            fresh = pool._worker_run(task)[1]
            dev.clock.charge(1234.5678)  # earlier tasks on this worker
            task = ("call", None, 0, ((), ("Y",)), np.random.default_rng(0))
            assert pool._worker_run(task)[1] == fresh
        finally:
            pool._WORKER.clear()

    def test_killed_worker_raises_typed_error_then_pool_recovers(self):
        """A worker SIGKILLed mid-task surfaces as WorkerPoolError within
        a bounded wait (a ``multiprocessing.Pool.map`` hangs here), and the
        next call runs on a fresh pool, bit-identical to serial."""
        import threading
        from functools import partial

        from repro.exceptions import WorkerPoolError

        from tests.helpers import backend_killing_its_worker

        _, tree = self._tree(parents=(0,))
        outcome = {}

        def doomed_call():
            try:
                run_tree_fragments_parallel(
                    tree,
                    partial(backend_killing_its_worker, os.getpid()),
                    shots=100,
                    seed=0,
                    max_workers=2,
                    mode="process",
                )
            except BaseException as exc:  # handed to the asserting thread
                outcome["error"] = exc

        caller = threading.Thread(target=doomed_call, daemon=True)
        caller.start()
        caller.join(timeout=120)
        assert not caller.is_alive(), "process-mode call hung on a dead worker"
        assert isinstance(outcome.get("error"), WorkerPoolError)

        serial = run_tree_fragments_parallel(
            tree, IdealBackend, shots=100, seed=0, mode="serial"
        )
        again = run_tree_fragments_parallel(
            tree, IdealBackend, shots=100, seed=0, max_workers=2, mode="process"
        )
        self._assert_identical(serial, again)

    def test_consecutive_calls_reuse_one_live_pool(self, monkeypatch):
        """Two different trees and backends back to back run on the same
        worker processes, each bit-identical to its serial run."""
        from repro.parallel import pool

        monkeypatch.setattr(pool, "IDLE_TIMEOUT_S", 60.0)
        jobs = [
            (self._tree(parents=(0, 0))[1], IdealBackend),
            (self._tree(seed=84, parents=(0,))[1], fake_5q_device),
        ]
        serial = [
            run_tree_fragments_parallel(t, f, shots=300, seed=5, mode="serial")
            for t, f in jobs
        ]
        executors = []
        for (tree, factory), reference in zip(jobs, serial):
            run = run_tree_fragments_parallel(
                tree, factory, shots=300, seed=5, max_workers=2, mode="process"
            )
            self._assert_identical(reference, run)
            assert np.isclose(reference.modeled_seconds, run.modeled_seconds)
            key = (pool.resolve_start_method(), 2)
            executors.append(pool._POOLS[key].executor)
        assert executors[0] is executors[1]

    @pytest.mark.skipif(
        not os.path.exists("/proc/self/maps"), reason="reads /proc/<pid>/maps"
    )
    def test_worker_maps_only_one_calls_banks(self, monkeypatch):
        """A worker closes the previous call's bank mappings when it starts
        on a new call: whatever it maps belongs to a single call."""
        import multiprocessing
        import re

        from repro.parallel import pool

        pool._shutdown_pools()  # only this test's workers are children
        monkeypatch.setattr(pool, "IDLE_TIMEOUT_S", 60.0)
        segments: list[set] = []
        real_pack = pool.SharedArrayBank.pack.__func__

        def recording_pack(cls, arrays):
            bank = real_pack(cls, arrays)
            segments[-1].add(bank.manifest["shm"])
            return bank

        monkeypatch.setattr(
            pool.SharedArrayBank, "pack", classmethod(recording_pack)
        )
        for seed, parents in ((83, (0, 0)), (84, (0,)), (85, (0, 0))):
            segments.append(set())
            run_tree_fragments_parallel(
                self._tree(seed=seed, parents=parents)[1],
                fake_5q_device,
                shots=100,
                seed=1,
                max_workers=2,
                mode="process",
            )
            mapped = []
            for child in multiprocessing.active_children():
                with open(f"/proc/{child.pid}/maps") as fh:
                    mapped.append(set(re.findall(r"psm_\w+", fh.read())))
            assert any(mapped)
            for names in mapped:
                assert any(names <= call for call in segments), names

    def test_process_rejects_cross_process_meters(self):
        from repro.cutting import RetryPolicy
        from repro.parallel import run_tree_fragments_parallel

        _, tree = self._tree(parents=(0,))
        for policy in (
            RetryPolicy(deadline=60.0),
            RetryPolicy(breaker_threshold=3),
        ):
            with pytest.raises(ValueError, match="process"):
                run_tree_fragments_parallel(
                    tree,
                    IdealBackend,
                    shots=100,
                    seed=0,
                    mode="process",
                    retry=policy,
                )
