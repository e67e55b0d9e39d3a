"""Seeded, deterministic fault injection for backends.

:class:`FaultInjectionBackend` wraps any backend and perturbs its behaviour
according to a :class:`FaultPlan`: transient exceptions, latency spikes
(modelled-seconds charges, which a retry policy's ``attempt_timeout`` reads
as hangs), shot shortfalls, and corrupted-counts payloads.  Every decision
is a pure function of ``(plan.seed, site, attempt)`` where ``site``
identifies the variant being executed and ``attempt`` counts invocations of
that site on this wrapper instance — so a fault schedule is exactly
reproducible across runs, across serial/threaded executors, and across
retries (attempt 2 of a site rolls fresh dice, letting transients clear).

The wrapper preserves the bit-identity contract: each variant of a batched
call is forwarded to the inner backend individually with the *same*
per-variant RNG stream the inner backend would have spawned for the whole
batch (via :func:`~repro.utils.rng.spawn_rngs` list passthrough).  With an
all-zero plan the wrapper is transparent — counts are bit-identical to the
unwrapped backend.

:class:`DeadVariantFamily` marks a permanently dead family — e.g. "every
variant of fragment 2 whose measurement setting has ``Y`` at cut 0" — which
always raises, modelling a basis rotation the hardware cannot calibrate.
This is what the graceful-degradation path in
:mod:`repro.cutting.resilience` recovers from.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.backends.base import Backend, ExecutionResult
from repro.circuits.circuit import Circuit
from repro.exceptions import TransientBackendError
from repro.utils.rng import spawn_rngs

__all__ = [
    "DeadVariantFamily",
    "FaultInjectionBackend",
    "FaultPlan",
    "FaultyBackendFactory",
]


@dataclass(frozen=True)
class DeadVariantFamily:
    """A permanently failing variant family of one tree fragment.

    ``side="setting"`` matches variants whose measurement setting has
    ``letter`` at flat cut ``position``; ``side="prep"`` matches variants
    whose entering preparation at cut ``position`` is an eigenstate of
    ``letter`` (``X`` matches ``X+`` and ``X-``).
    """

    fragment: int
    letter: str
    position: int
    side: str = "setting"

    def __post_init__(self) -> None:
        if self.side not in ("setting", "prep"):
            raise ValueError(f"side must be 'setting' or 'prep', got {self.side!r}")

    def matches(self, site: tuple) -> bool:
        if len(site) != 4 or site[0] != "tree" or site[1] != self.fragment:
            return False
        inits, setting = site[2], site[3]
        if self.side == "setting":
            return len(setting) > self.position and setting[self.position] == self.letter
        return (
            len(inits) > self.position
            and inits[self.position][0] == self.letter
        )


@dataclass(frozen=True)
class FaultPlan:
    """Seeded description of which faults fire where.

    Rates are independent per-site-per-attempt probabilities, evaluated in
    a fixed order (transient, latency, shortfall, corrupt) from a stream
    keyed by ``(seed, site, attempt)`` — at most one fault fires per
    invocation.  ``max_consecutive_transients`` caps how many attempts in a
    row a site's transient can fire, bounding worst-case retry depth in
    soak tests.  ``dead`` lists :class:`DeadVariantFamily` matchers that
    always raise regardless of rates.
    """

    seed: int = 0
    transient_rate: float = 0.0
    latency_rate: float = 0.0
    latency_seconds: float = 5.0
    shortfall_rate: float = 0.0
    corrupt_rate: float = 0.0
    max_consecutive_transients: int | None = None
    dead: tuple = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for name in ("transient_rate", "latency_rate", "shortfall_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.latency_seconds < 0:
            raise ValueError("latency_seconds must be non-negative")
        object.__setattr__(self, "dead", tuple(self.dead))

    # ------------------------------------------------------------------
    def _rng(self, site: tuple, attempt: int, salt: str = "") -> np.random.Generator:
        payload = repr((self.seed, site, attempt, salt)).encode()
        digest = hashlib.sha256(payload).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def action(self, site: tuple, attempt: int) -> "tuple[str, float] | None":
        """The fault (if any) for invocation ``attempt`` of ``site``."""
        for family in self.dead:
            if family.matches(site):
                return ("dead", 0.0)
        draws = self._rng(site, attempt).uniform(size=4)
        if draws[0] < self.transient_rate and (
            self.max_consecutive_transients is None
            or attempt <= self.max_consecutive_transients
        ):
            return ("transient", 0.0)
        if draws[1] < self.latency_rate:
            return ("latency", self.latency_seconds)
        if draws[2] < self.shortfall_rate:
            return ("shortfall", 0.0)
        if draws[3] < self.corrupt_rate:
            return ("corrupt", 0.0)
        return None


class FaultInjectionBackend(Backend):
    """Wrap ``inner`` so executions fail according to ``plan``.

    Batched entry points are split into per-variant forwards with explicit
    per-variant streams (bit-identical to the inner backend's own batch
    spawning), so a fault on one variant never disturbs its siblings'
    counts.  Cache construction, the virtual clock, and any extra
    attributes (``exact_probabilities``, ``coupling``, ...) delegate to the
    inner backend.
    """

    def __init__(self, inner: Backend, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan
        self._lock = threading.Lock()
        self._invocations: dict[tuple, int] = {}

    # -- delegation ----------------------------------------------------
    @property
    def clock(self):
        return self.inner.clock

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"faulty({self.inner.name})"

    @property
    def max_qubits(self):  # type: ignore[override]
        return self.inner.max_qubits

    def __getattr__(self, attr):
        # only reached when normal lookup fails: exact_probabilities, ...
        if attr == "inner":
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def make_tree_cache_pool(self, tree, dtype=np.float64):
        return self.inner.make_tree_cache_pool(tree, dtype=dtype)

    def make_tree_fragment_cache(self, fragment, dtype=np.float64):
        return self.inner.make_tree_fragment_cache(fragment, dtype=dtype)

    def restore_tree_fragment_cache(self, fragment, arrays, meta):
        return self.inner.restore_tree_fragment_cache(fragment, arrays, meta)

    def _execute(self, circuit, shots, rng):  # pragma: no cover - delegated
        return self.inner._execute(circuit, shots, rng)

    # -- fault machinery -----------------------------------------------
    def _next_attempt(self, site: tuple) -> int:
        with self._lock:
            attempt = self._invocations.get(site, 0) + 1
            self._invocations[site] = attempt
            return attempt

    def _faulted(self, site: tuple, call, shots: int) -> ExecutionResult:
        attempt = self._next_attempt(site)
        action = self.plan.action(site, attempt)
        if action is not None and action[0] in ("dead", "transient"):
            kind = action[0]
            raise TransientBackendError(
                f"injected {kind} fault at {site!r} (attempt {attempt})",
                site=site,
                attempt=attempt,
            )
        result = call()
        if action is None:
            return result
        kind, seconds = action
        counts = dict(result.counts)
        metadata = {**result.metadata, "injected_fault": kind}
        if kind == "latency":
            self.inner.clock.charge(seconds, label=f"fault:latency:{site[0]}")
            return ExecutionResult(
                counts=counts,
                shots=result.shots,
                num_qubits=result.num_qubits,
                seconds=result.seconds + seconds,
                metadata=metadata,
            )
        if kind == "shortfall":
            top = max(counts, key=counts.get)
            counts[top] = max(0, counts[top] - max(1, result.shots // 10))
        else:  # corrupt
            mode = int(self.plan._rng(site, attempt, salt="corrupt").integers(3))
            top = max(counts, key=counts.get)
            if mode == 0:
                counts["2" * result.num_qubits] = 1
            elif mode == 1:
                counts[top] = -counts[top] if counts[top] else -1
            else:
                counts[top] = counts[top] + 13
        metadata.pop("exact", None)  # corrupted payloads must not dodge totals checks
        return ExecutionResult(
            counts=counts,
            shots=result.shots,
            num_qubits=result.num_qubits,
            seconds=result.seconds,
            metadata=metadata,
        )

    # -- execution entry points ----------------------------------------
    def run(
        self,
        circuits: "Circuit | Sequence[Circuit]",
        shots: int = 1000,
        seed=None,
    ) -> list[ExecutionResult]:
        single = isinstance(circuits, Circuit)
        batch = [circuits] if single else list(circuits)
        if not batch:
            return []
        streams = spawn_rngs(seed, len(batch))
        out = []
        for j, (qc, stream) in enumerate(zip(batch, streams)):
            site = ("circuit", j, qc.name)
            out.append(
                self._faulted(
                    site,
                    lambda qc=qc, stream=stream: self.inner.run(
                        qc, shots=shots, seed=[stream]
                    )[0],
                    shots,
                )
            )
        return out

    def run_tree_variants(
        self,
        tree,
        index: int,
        combos,
        shots: int = 1000,
        seed=None,
        cache=None,
    ) -> list[ExecutionResult]:
        streams = spawn_rngs(seed, len(combos))
        if cache is None and len(combos) > 1:
            pool = self.inner.make_tree_cache_pool(tree)
            cache = pool[index] if pool is not None else None
        out = []
        for combo, stream in zip(combos, streams):
            site = ("tree", index, combo[0], combo[1])
            out.append(
                self._faulted(
                    site,
                    lambda combo=combo, stream=stream: self.inner.run_tree_variants(
                        tree, index, [combo], shots=shots, seed=[stream], cache=cache
                    )[0],
                    shots,
                )
            )
        return out

    def run_chain_variants(
        self,
        chain,
        index: int,
        combos,
        shots: int = 1000,
        seed=None,
        cache=None,
    ) -> list[ExecutionResult]:
        return self.run_tree_variants(
            chain, index, combos, shots=shots, seed=seed, cache=cache
        )


@dataclass(frozen=True)
class FaultyBackendFactory:
    """Picklable zero-arg factory of fault-injected backends.

    The process-pool executor pickles its ``backend_factory`` into every
    worker, where lambdas (the natural way to write
    ``lambda: FaultInjectionBackend(IdealBackend(), plan)``) cannot go.
    This dataclass closes over a picklable ``inner_factory`` (a backend
    class, a module-level function such as
    :func:`~repro.backends.devices.fake_5q_device`, or a
    ``functools.partial`` of one) plus the :class:`FaultPlan`, and builds a
    fresh wrapped backend per call — one per worker process, each with its
    own per-site invocation counters, exactly like the thread executor's
    per-worker wrappers.
    """

    inner_factory: object
    plan: FaultPlan

    def __call__(self) -> FaultInjectionBackend:
        return FaultInjectionBackend(self.inner_factory(), self.plan)
