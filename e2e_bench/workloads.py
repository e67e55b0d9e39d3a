"""The five end-to-end workloads, each driven through a public entry point.

Op ``i`` runs circuit ``i`` of a fixed catalogue (drawn from
``CIRCUIT_SEED``) with a run seed derived from ``(workload seed, i)``, so no
op repeats an earlier one and the same seed always replays the same inputs.
Runs with different seeds execute the same circuits and differ in the
randomness the seed drives (shot sampling, pilots, detection verdicts),
which keeps run-to-run spreads down to that randomness.  Ops go
through :func:`repro.core.pipeline.cut_and_run_tree` or
:meth:`repro.parallel.service.CutRunService.run` and nothing else; the
oracles used by :meth:`Workload.check` (statevector truth, serial or solo
replays) run outside the timed window.  Every op is checked; an oracle that
costs about as much as the op itself runs on a run's first ops only.
"""

from __future__ import annotations

import contextlib
import hashlib
import threading
import time

import numpy as np

from repro.backends.fake_hardware import FakeHardwareBackend
from repro.backends.ideal import IdealBackend
from repro.core.pipeline import cut_and_run_tree
from repro.cutting.execution import exact_tree_data
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.cutting.fingerprint import FragmentStore
from repro.cutting.tree import partition_tree
from repro.cutting.variants import tree_variant_tuples
from repro.harness.scaling import (
    chain_cut_circuit,
    golden_tree_circuit,
    tree_cut_circuit,
)
from repro.metrics import total_variation
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.parallel.service import CutRunService
from repro.sim.statevector import simulate_statevector
from repro.transpile.coupling import CouplingMap

#: op index of the untimed warm-up op (outside every timed index range)
WARMUP_INDEX = 1 << 30
#: seed of the circuit catalogue shared by all workload seeds
CIRCUIT_SEED = 2023


def derive_seed(*words: int) -> int:
    """A 32-bit seed determined by ``words`` (workload seed, op index, ...)."""
    return int(np.random.SeedSequence([int(w) for w in words]).generate_state(1)[0])


def circuit_seed(index: int, *more: int) -> int:
    """Seed of catalogue circuit ``index``."""
    return derive_seed(CIRCUIT_SEED, index, *more)


def _noise(num_qubits: int) -> NoiseModel:
    """The noise model of ``benchmarks/bench_tree_fragments.py``."""
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return nm


def linear_6q_device() -> FakeHardwareBackend:
    return FakeHardwareBackend(
        CouplingMap.linear(6), _noise(6), name="bench_tree_6q"
    )


def _truth(circuit) -> np.ndarray:
    return simulate_statevector(circuit).probabilities()


def _digest(probs: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(probs).tobytes()).hexdigest()


#: planted X/Y-golden cut groups of the noisy detection tree
_PLANTED = (0, 2)


def golden_detect_input(seed: int, index: int) -> dict:
    """The noisy detection tree for op ``index``.

    ``golden_tree_circuit`` leaves a random block's uncoupled wires to the
    root fragment, so a draw is redrawn (deterministically) until every
    fragment fits the 6-qubit device.
    """
    for attempt in range(1000):
        qc, specs, _ = golden_tree_circuit(
            [0, 0, 1, 1],
            planted_groups=_PLANTED,
            fresh_per_fragment=3,
            seed=circuit_seed(index, attempt),
        )
        if max(f.num_qubits for f in partition_tree(qc, specs).fragments) <= 6:
            return {"circuit": qc, "specs": specs, "seed": derive_seed(seed, index)}
    raise RuntimeError("no golden tree draw fits the 6-qubit device")


class OpOutcome:
    """What one op reports to the driver (plain numbers only)."""

    __slots__ = (
        "index", "latency", "probe", "device_s", "variants", "shots", "neglected", "tv",
        "ok", "note",
    )

    def __init__(
        self, latency, result=None, tv=None, ok=True, note="", index=None, probe=None
    ):
        self.index = index
        self.latency = latency
        self.probe = probe
        self.tv = tv
        self.ok = ok
        self.note = note
        if result is None:
            self.device_s = self.variants = self.shots = self.neglected = None
            return
        costs = result.costs
        tree = result.tree
        full = sum(len(tree_variant_tuples(tree, i)) for i in range(tree.num_fragments))
        self.device_s = float(result.device_seconds)
        self.variants = int(costs["num_variants"] + costs.get("pilot_num_variants", 0))
        self.shots = int(costs["total_executions"] + costs.get("pilot_executions", 0))
        self.neglected = full - int(costs["num_variants"])


class Workload:
    """One closed-loop client calling :meth:`call` on generated inputs.

    Subclasses set ``name`` and implement :meth:`setup`, :meth:`make_input`,
    :meth:`call` and :meth:`check`.  ``expected_spans`` must all fire in a
    traced run; ``expected_stage`` is the stage the workload was chosen to
    stress (the largest self-time stage of its traced run).
    """

    name = ""
    clients = 1
    expected_spans: tuple = ()
    expected_stage: tuple = ()
    notes: tuple = ()

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def setup(self) -> None:
        """Build backends/services; input generation happens per op."""

    def make_input(self, index: int) -> dict:
        raise NotImplementedError

    def call(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, result, ordinal: int) -> "tuple[bool, float, str]":
        """``(ok, tv_error, note)`` for the run's ``ordinal``-th op; untimed."""
        raise NotImplementedError

    def warm_up(self, index: int) -> None:
        self.call(self.make_input(index))

    def close(self) -> None:
        pass


class NoisyDetectTree(Workload):
    name = "noisy-detect-tree"
    expected_spans = (
        "detection.detect_tree_golden_bases",
        "density.evolve_noisy_tensor",
        "noisy_cache.physical",
        "transpile.transpile",
        "cache.pool_warm",
        "backend.run_tree_variants",
        "sampler.sample_counts",
        "execution.run_tree_fragments",
        "reconstruction.reconstruct_tree_distribution",
        "tree.partition_tree",
    )
    expected_stage = ("noisy evolution",)

    def setup(self) -> None:
        self.backend = linear_6q_device()

    def make_input(self, index: int) -> dict:
        return golden_detect_input(self.seed, index)

    def call(self, inp: dict):
        # no fragment store: every op builds (and warms) a fresh cache pool
        return cut_and_run_tree(
            inp["circuit"],
            self.backend,
            inp["specs"],
            shots=1000,
            golden="detect",
            seed=inp["seed"],
        )

    def check(self, inp, result, ordinal):
        p = np.asarray(result.probabilities)
        tv = total_variation(p, _truth(inp["circuit"]))
        if p.min() < 0 or not np.isclose(p.sum(), 1.0):
            return False, tv, "output is not a distribution"
        missing = [g for g in _PLANTED if not result.golden_used[g]]
        if missing:
            return False, tv, f"no golden verdict on planted groups {missing}"
        return True, tv, ""


class IdealAutoCut(Workload):
    name = "ideal-auto-cut"
    expected_spans = (
        "search.find_cut_specs",
        "fragments.bipartition",
        "tree.partition_tree",
        "backend.run_tree_variants",
        "reconstruction.reconstruct_tree_distribution",
    )
    expected_stage = ("search",)
    #: TV may exceed the predicted stddev; this multiple is far outside
    #: shot noise and far inside a broken reconstruction
    tv_factor = 5.0
    shots = 4000
    #: fresh-seed replays of each op's cut plan in the accuracy check
    replays = 4

    def setup(self) -> None:
        self.backend = IdealBackend()

    def make_input(self, index: int) -> dict:
        qc, _ = chain_cut_circuit(
            4, fresh_per_fragment=2, seed=circuit_seed(index)
        )
        return {"circuit": qc, "seed": derive_seed(self.seed, index)}

    def call(self, inp: dict):
        return cut_and_run_tree(
            inp["circuit"],
            self.backend,
            cuts=None,
            max_fragment_qubits=4,
            shots=self.shots,
            seed=inp["seed"],
        )

    def check(self, inp, result, ordinal):
        truth = _truth(inp["circuit"])
        tv = total_variation(np.asarray(result.probabilities), truth)
        bound = self.tv_factor * result.tv_bound()
        if tv > bound:
            return False, tv, f"TV {tv:.4g} > {self.tv_factor} x tv_bound ({bound:.4g})"
        # Shot noise moves one op's TV by about half its value, too much for
        # a median over a run's few dozen ops to settle; the op's cut plan
        # is replayed with fresh seeds (no search, a few ms each) and the
        # reported TV averages them with the op's own.
        tvs = [tv]
        for r in range(self.replays):
            replay = cut_and_run_tree(
                inp["circuit"],
                self.backend,
                result.tree.specs,
                shots=self.shots,
                seed=derive_seed(inp["seed"], r),
            )
            tvs.append(total_variation(np.asarray(replay.probabilities), truth))
        return True, float(np.mean(tvs)), ""


class ExactBinaryTree22q(Workload):
    name = "exact-binary-tree-22q"
    expected_spans = (
        "tree.partition_tree",
        "backend.run_tree_variants",
        "sampler.probs_to_counts",
        "execution.run_tree_fragments",
        "reconstruction.reconstruct_tree_distribution",
        "reconstruction.build_tree_fragment_tensor",
    )
    expected_stage = ("reconstruction",)
    #: exact mode rounds every variant's expected counts to 10**6 shots;
    #: the measured max |dp| is ~2e-7
    max_abs_error = 1e-6

    def setup(self) -> None:
        self.backend = IdealBackend(exact=True)

    def make_input(self, index: int) -> dict:
        qc, specs = tree_cut_circuit(
            [0, 0, 1, 1, 2, 2, 3, 3, 4, 4],
            1,
            fresh_per_fragment=2,
            seed=circuit_seed(index),
        )
        return {"circuit": qc, "specs": specs, "seed": derive_seed(self.seed, index)}

    def call(self, inp: dict):
        return cut_and_run_tree(
            inp["circuit"], self.backend, inp["specs"], shots=10**6, seed=inp["seed"]
        )

    def check(self, inp, result, ordinal):
        # Every op: against the infinite-shot reconstruction of the same
        # tree, which the test suite pins to statevector truth.  A 22-qubit
        # statevector costs seconds, so it checks the first op only.
        p = np.asarray(result.probabilities)
        exact = reconstruct_tree_distribution(
            exact_tree_data(result.tree), postprocess="raw"
        )
        oracles = [("exact reconstruction", exact)]
        if ordinal == 0:
            oracles.append(("statevector truth", _truth(inp["circuit"])))
        for label, truth in oracles:
            err = float(np.max(np.abs(p - truth)))
            if err > self.max_abs_error:
                return False, None, f"max |dp| {err:.3g} to {label} > {self.max_abs_error}"
        # exact mode matches the exact reconstruction bit for bit, so the
        # accuracy reported is the first op's distance to statevector truth
        return True, total_variation(p, oracles[-1][1]) if ordinal == 0 else None, ""


class ProcessPool(Workload):
    """The fragment tree in ``executor="process"`` mode on the noisy device.

    The parent warms the fragment caches, ships their banks to two worker
    processes through shared memory, and the workers sample every variant;
    with fragments of at most three qubits, pool start-up and bank
    shipping are nearly the whole op.
    """

    name = "process-pool"
    expected_spans = (
        "tree.partition_tree",
        "executor.run_tree_fragments_parallel",
        "pool.run_tree_tasks_process",
        "cache.pool_warm",
        "reconstruction.reconstruct_tree_distribution",
    )
    expected_stage = ("process pool",)
    #: sampling is cheap next to the pool, so a large budget keeps
    #: tv_error tracking the device error rather than shot noise
    shots = 20_000
    #: ops per run checked against a serial replay
    replayed = 2
    notes = (
        "process mode: only parent-side spans are visible; worker execution "
        "is inside pool.run_tree_tasks_process self time",
    )

    def make_input(self, index: int) -> dict:
        qc, specs = tree_cut_circuit(
            [0, 0], 1, fresh_per_fragment=2, seed=circuit_seed(index)
        )
        return {"circuit": qc, "specs": specs, "seed": derive_seed(self.seed, index)}

    def run(self, inp: dict, executor: str, max_workers: int):
        return cut_and_run_tree(
            inp["circuit"],
            linear_6q_device,
            inp["specs"],
            shots=self.shots,
            seed=inp["seed"],
            executor=executor,
            max_workers=max_workers,
        )

    def call(self, inp: dict):
        return self.run(inp, "process", 2)

    def check(self, inp, result, ordinal):
        p = np.asarray(result.probabilities)
        tv = total_variation(p, _truth(inp["circuit"]))
        # one thread worker runs the tasks in order: the executor's serial
        # reference, bit-identical to process mode by contract.  It costs
        # half an op, so only a run's first ops are replayed.
        if ordinal < self.replayed:
            serial = self.run(inp, "thread", 1)
            if not np.array_equal(p, np.asarray(serial.probabilities)):
                return False, tv, "process result differs from the serial reference"
        return True, tv, ""


class ServiceTwoClients(Workload):
    """Two closed-loop clients sending the same request sequence.

    Both clients send request ``j`` with seed ``workload seed + j`` over
    one circuit, so every fragment job of one client coalesces with the
    other's and, after the first request, every body comes warm from the
    service's :class:`~repro.cutting.fingerprint.FragmentStore`.
    """

    name = "service-two-clients"
    clients = 2
    expected_spans = (
        "service.run_fragments",
        "fingerprint.fragment_fingerprint",
        "backend.run_tree_variants",
        "detection.detect_tree_golden_bases",
        "reconstruction.reconstruct_tree_distribution",
    )
    expected_stage = ("service", "backend", "sampling")
    #: requests replayed solo through cut_and_run_tree per run
    replayed = 2

    def setup(self) -> None:
        self.request = golden_detect_input(self.seed, 0)
        self.truth = _truth(self.request["circuit"])
        self.service = CutRunService(
            linear_6q_device(), batch_window=0.01, store=FragmentStore()
        )

    def request_kwargs(self, index: int) -> dict:
        return dict(
            specs=self.request["specs"],
            shots=500,
            golden="detect",
            seed=self.seed + index,
        )

    def warm_up(self, index: int) -> None:
        self.call_request(index)

    def call_request(self, index: int):
        return self.service.run(self.request["circuit"], **self.request_kwargs(index))

    def solo(self, index: int):
        return cut_and_run_tree(
            self.request["circuit"], linear_6q_device(), **self.request_kwargs(index)
        )

    def stats(self) -> dict:
        return self.service.stats()

    def run_clients(self, seconds, start, max_requests=None, on_request=None):
        """Run both clients until ``seconds`` pass (or ``max_requests`` each).

        Returns ``(outcomes, digests, wall)``.  When time runs out the
        leading client stops and the other catches up to the same request
        count, so both send exactly the same sequence.
        """
        lock = threading.Lock()
        started = [0] * self.clients
        limit = [max_requests]
        outcomes: list = []
        digests: dict = {}
        t_begin = time.perf_counter()

        def client(c: int) -> None:
            j = 0
            while True:
                with lock:
                    if limit[0] is None and time.perf_counter() - t_begin >= seconds:
                        limit[0] = max(started)
                    if limit[0] is not None and j >= limit[0]:
                        return
                    started[c] = j + 1
                index = start + j
                j += 1
                ctx = on_request(index) if on_request else contextlib.nullcontext()
                t0 = time.perf_counter()
                digest = None
                try:
                    with ctx:
                        res = self.call_request(index)
                except Exception as exc:  # counted, never fatal
                    outcome = OpOutcome(
                        time.perf_counter() - t0, ok=False, note=repr(exc), index=index
                    )
                else:
                    latency = time.perf_counter() - t0
                    p = np.asarray(res.probabilities)
                    ok = bool(p.min() >= 0 and np.isclose(p.sum(), 1.0))
                    outcome = OpOutcome(
                        latency,
                        res,
                        tv=total_variation(p, self.truth),
                        ok=ok,
                        note="" if ok else "output is not a distribution",
                        index=index,
                    )
                    digest = _digest(p)
                with lock:
                    outcomes.append(outcome)
                    if digest is not None:
                        digests.setdefault(index, []).append(digest)

        threads = [
            threading.Thread(target=client, args=(c,), name=f"client-{c}")
            for c in range(self.clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return outcomes, digests, time.perf_counter() - t_begin

    def verify(self, digests: dict) -> "list[tuple[int, str]]":
        """Cross-client and solo-replay bit-identity; ``(index, note)`` failures."""
        failures = []
        for index, ds in sorted(digests.items()):
            if len(ds) != self.clients or len(set(ds)) != 1:
                failures.append((index, "clients disagree"))
        for index in sorted(digests)[: self.replayed]:
            if _digest(np.asarray(self.solo(index).probabilities)) != digests[index][0]:
                failures.append((index, "differs from its solo replay"))
        return failures

    def close(self) -> None:
        self.service.close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        NoisyDetectTree,
        IdealAutoCut,
        ExactBinaryTree22q,
        ServiceTwoClients,
        ProcessPool,
    )
}
