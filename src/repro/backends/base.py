"""Backend abstraction.

A backend turns circuits into measurement counts.  The interface is
deliberately tiny — ``run(circuits, shots, seed) -> [ExecutionResult]`` —
because that is all wire cutting needs: the cutter submits fragment
variants, the reconstructor consumes counts.

Backends also expose :attr:`Backend.clock`, a
:class:`~repro.utils.timing.VirtualClock` accumulating *modelled* execution
time.  The ideal backend charges nothing; fake hardware charges per-job
overhead and per-shot latency (DESIGN.md §2), which is how the paper's
Fig. 5 wall-time comparison is reproduced deterministically.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.exceptions import BackendError, CorruptedResultError
from repro.sim.sampler import Counts, counts_to_probs
from repro.utils.timing import VirtualClock

__all__ = ["Backend", "ExecutionResult", "validate_execution_result"]


@dataclass
class ExecutionResult:
    """Counts (and metadata) from running one circuit.

    Attributes
    ----------
    counts:
        Display-bitstring → occurrences (qubit 0 leftmost): a
        :class:`~repro.sim.sampler.Counts` over the dense count vector (what
        the built-in backends return) or a plain ``dict``.
    shots:
        The shot budget the job ran with.  Sampled counts sum to it;
        exact-mode counts (metadata ``exact=True``) are rounded ``p * shots``
        per outcome and may miss it by rounding.
    num_qubits:
        Width of the measured register.
    seconds:
        Modelled device seconds charged for this job.
    """

    counts: "Counts | dict[str, int]"
    shots: int
    num_qubits: int
    seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    def probabilities(self) -> np.ndarray:
        """Empirical distribution as a little-endian vector."""
        return counts_to_probs(self.counts, self.num_qubits)

    def validate(
        self, expected_shots: int | None = None, expected_qubits: int | None = None
    ) -> "ExecutionResult":
        """Boundary-check the payload; see :func:`validate_execution_result`."""
        validate_execution_result(self, expected_shots, expected_qubits)
        return self


def validate_execution_result(
    result: ExecutionResult,
    expected_shots: int | None = None,
    expected_qubits: int | None = None,
) -> None:
    """Validate a counts payload at the backend boundary.

    Raises :class:`~repro.exceptions.CorruptedResultError` (retryable —
    re-execution re-samples) if any counts key is not an ``n``-bit string
    over ``{0,1}``, any count is negative or non-integer, the shot total
    does not match ``result.shots``, or the declared shots/width disagree
    with what the caller requested.  A :class:`~repro.sim.sampler.Counts`
    is checked on its vector (length ``2^n``, integer dtype, no negative
    entry), a plain mapping key by key.  Exact-mode results (metadata
    ``exact=True``) round ``p * shots`` per outcome, so their totals may
    legitimately miss ``shots`` by rounding; only the total check is
    skipped for them.
    """
    n = result.num_qubits
    if expected_qubits is not None and n != expected_qubits:
        raise CorruptedResultError(
            f"result width {n} != requested width {expected_qubits}"
        )
    if expected_shots is not None and result.shots != expected_shots:
        raise CorruptedResultError(
            f"result declares {result.shots} shots, {expected_shots} requested"
        )
    counts = result.counts
    if isinstance(counts, Counts):
        defect = counts.defect(n)
        if defect is not None:
            raise CorruptedResultError(defect)
        total = int(counts.array.sum())
    else:
        total = 0
        for key, count in counts.items():
            if len(key) != n or any(ch not in "01" for ch in key):
                raise CorruptedResultError(
                    f"counts key {key!r} is not a {n}-bit string"
                )
            if not isinstance(count, (int, np.integer)) or count < 0:
                raise CorruptedResultError(
                    f"count {count!r} for key {key!r} is negative or non-integer"
                )
            total += int(count)
    if not result.metadata.get("exact") and total != result.shots:
        raise CorruptedResultError(
            f"counts total {total} != declared shots {result.shots}"
        )


class Backend(abc.ABC):
    """Abstract circuit-execution service."""

    #: human-readable backend name
    name: str = "backend"
    #: maximum circuit width accepted (None = unlimited)
    max_qubits: int | None = None

    def __init__(self) -> None:
        self.clock = VirtualClock()

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _execute(
        self, circuit: Circuit, shots: int, rng: np.random.Generator
    ) -> ExecutionResult:
        """Run one circuit; subclasses implement the physics."""

    def run(
        self,
        circuits: "Circuit | Sequence[Circuit]",
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
    ) -> list[ExecutionResult]:
        """Execute one or more circuits, returning one result per circuit.

        Each circuit gets an independent RNG child stream derived from
        ``seed``, so results are order-independent and reproducible.
        """
        from repro.utils.rng import spawn_rngs

        single = isinstance(circuits, Circuit)
        batch = [circuits] if single else list(circuits)
        if not batch:
            return []
        for qc in batch:
            if self.max_qubits is not None and qc.num_qubits > self.max_qubits:
                raise BackendError(
                    f"{self.name}: circuit width {qc.num_qubits} exceeds "
                    f"device size {self.max_qubits}"
                )
            if shots <= 0:
                raise BackendError(f"shots must be positive, got {shots}")
        rngs = spawn_rngs(seed, len(batch))
        out = []
        for qc, rng in zip(batch, rngs):
            res = self._execute(qc, shots, rng)
            res.validate(expected_shots=shots, expected_qubits=qc.num_qubits)
            out.append(res)
        return out

    def run_one(
        self,
        circuit: Circuit,
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
    ) -> ExecutionResult:
        """Convenience wrapper returning a single result."""
        return self.run(circuit, shots, seed)[0]

    def make_tree_fragment_cache(self, fragment, dtype=np.float64):
        """Build one tree fragment's simulation cache (``None`` = none).

        The per-fragment unit the pool, the process-pool workers, and the
        content-addressed fragment store all build on: backends with an
        exact engine return a warmable cache bound to ``fragment`` (ideal →
        :class:`~repro.cutting.cache.TreeFragmentSimCache`, fake hardware →
        :class:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache`);
        backends that really execute circuits return ``None``.
        """
        return None

    def restore_tree_fragment_cache(self, fragment, arrays, meta):
        """Rebuild a warmed fragment cache from ``export_arrays`` output.

        The process-pool executor exports each warmed cache's numeric banks
        into shared memory in the parent and calls this hook in every
        worker, so warming happens once per body rather than once per
        worker.  Backends without a cache return ``None`` (workers then
        execute circuits directly, which is their whole point).
        """
        return None

    def make_tree_cache_pool(self, tree, dtype=np.float64):
        """Build the per-fragment cache pool :meth:`run_tree_variants` uses.

        ``None`` for backends that really execute circuits; one cache per
        tree fragment
        (wrapped in a :class:`~repro.cutting.cache.TreeCachePool`) for the
        ideal and fake-hardware backends, so every fragment body is
        transpiled/simulated exactly once per pipeline invocation —
        the exactly-``N``-body-transpiles law for an ``N``-node tree.
        ``dtype`` is the requested precision of the cached *probability*
        records (simulation itself stays complex); backends whose caches
        do not support it may ignore the request.

        Assembled from :meth:`make_tree_fragment_cache`, the per-fragment
        hook backends actually override.
        """
        from repro.cutting.cache import TreeCachePool

        caches = [
            self.make_tree_fragment_cache(f, dtype=dtype)
            for f in tree.fragments
        ]
        if any(c is None for c in caches):
            return None
        return TreeCachePool(tree, caches)

    def make_chain_cache_pool(self, chain, dtype=np.float64):
        """Chain alias of :meth:`make_tree_cache_pool` (a linear tree)."""
        return self.make_tree_cache_pool(chain, dtype=dtype)

    def run_tree_variants(
        self,
        tree,
        index: int,
        combos: Sequence[tuple[tuple[str, ...], tuple[str, ...]]],
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
        cache=None,
    ) -> list[ExecutionResult]:
        """Execute one tree fragment's ``(inits, setting)`` variants.

        The default implementation materialises each combined variant
        circuit (:func:`~repro.cutting.variants.tree_variant`) and submits
        the batch through :meth:`run` — these are the reference semantics
        the cached fast paths must reproduce bit-identically.  ``cache`` is
        ignored here, where circuits must really be executed.
        """
        from repro.cutting.variants import tree_variant

        circuits = [tree_variant(tree, index, a, s) for a, s in combos]
        return self.run(circuits, shots=shots, seed=seed)

    def run_chain_variants(
        self,
        chain,
        index: int,
        combos: Sequence[tuple[tuple[str, ...], tuple[str, ...]]],
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
        cache=None,
    ) -> list[ExecutionResult]:
        """Chain alias of :meth:`run_tree_variants` (a linear tree).

        Deliberately pinned to the *base* tree implementation:
        ``Backend.run_chain_variants(dev, ...)`` is how tests obtain the
        per-circuit reference semantics on a backend whose own methods take
        the cached fast path, and that contract must not dispatch
        virtually.  Cached backends override this alias alongside
        :meth:`run_tree_variants`.
        """
        return Backend.run_tree_variants(
            self, chain, index, combos, shots=shots, seed=seed, cache=cache
        )
