"""Ideal (noiseless) sampling backend — the Aer-simulator stand-in.

Simulates the exact statevector, then draws multinomial samples.  An
``exact=True`` mode returns the true distribution as "counts" scaled to the
shot budget, handy for separating algorithmic error from shot noise in
tests and ablations.

Fragment variants take a fast path: :meth:`IdealBackend.run_tree_variants`
pulls every variant's exact distribution from the fragment's shared
:class:`~repro.cutting.cache.TreeFragmentSimCache` (one batched body
simulation plus cheap axis rotations instead of one full circuit run per
variant) and only then samples — the per-variant RNG streams are spawned
exactly as the circuit-level path would, so results stay reproducible.
Exact mode draws nothing, so it spawns no streams on that path.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend, ExecutionResult
from repro.circuits.circuit import Circuit
from repro.exceptions import BackendError
from repro.sim.sampler import probs_to_counts, sample_counts
from repro.sim.statevector import simulate_statevector
from repro.utils.rng import spawn_rngs

__all__ = ["IdealBackend"]


class IdealBackend(Backend):
    """Noiseless statevector sampler.

    Parameters
    ----------
    exact:
        When True, skip sampling and report expected counts (rounded
        ``p * shots``) — an infinite-shot idealisation.
    """

    name = "ideal"

    def __init__(self, exact: bool = False, max_qubits: int | None = 24) -> None:
        super().__init__()
        self.exact = exact
        self.max_qubits = max_qubits

    def _execute(
        self, circuit: Circuit, shots: int, rng: np.random.Generator
    ) -> ExecutionResult:
        probs = simulate_statevector(circuit).probabilities()
        return self._result_from_probs(probs, circuit.num_qubits, shots, rng)

    def _result_from_probs(
        self, probs: np.ndarray, num_qubits: int, shots: int, rng
    ) -> ExecutionResult:
        if self.exact:
            counts = probs_to_counts(probs, shots, num_qubits)
        else:
            counts = sample_counts(probs, shots, seed=rng, num_qubits=num_qubits)
        return ExecutionResult(
            counts=counts,
            shots=shots,
            num_qubits=num_qubits,
            seconds=0.0,
            metadata={"backend": self.name, "exact": self.exact},
        )

    def make_tree_fragment_cache(self, fragment, dtype=np.float64):
        """A :class:`TreeFragmentSimCache` bound to ``fragment``.

        ``dtype`` sets the precision of the cached probability records
        (float32 is the memory-halving fast path; simulation itself stays
        complex — see :class:`~repro.cutting.cache.TreeFragmentSimCache`).
        The pool assembled by the base ``make_tree_cache_pool`` holds one
        of these per tree fragment.
        """
        from repro.cutting.cache import TreeFragmentSimCache

        return TreeFragmentSimCache(fragment, dtype=dtype)

    def restore_tree_fragment_cache(self, fragment, arrays, meta):
        """Rebuild a warmed :class:`TreeFragmentSimCache` in a pool worker."""
        from repro.cutting.cache import TreeFragmentSimCache

        return TreeFragmentSimCache.from_arrays(fragment, arrays, meta)

    def run_tree_variants(
        self,
        tree,
        index: int,
        combos,
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
        cache=None,
    ) -> list[ExecutionResult]:
        """Serve one tree fragment's variants from its shared cache."""
        from repro.cutting.cache import TreeFragmentSimCache

        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        frag = tree.fragments[index]
        if self.max_qubits is not None and frag.num_qubits > self.max_qubits:
            raise BackendError(
                f"{self.name}: circuit width {frag.num_qubits} exceeds "
                f"device size {self.max_qubits}"
            )
        if (
            not isinstance(cache, TreeFragmentSimCache)
            or cache.fragment is not frag
        ):
            cache = TreeFragmentSimCache(frag)
        if self.exact:
            # exact counts draw nothing: spawn no streams, only check the
            # length of a supplied stream list
            if isinstance(seed, (list, tuple)):
                spawn_rngs(seed, len(combos))
            rngs = [None] * len(combos)
        else:
            rngs = spawn_rngs(seed, len(combos))
        return [
            self._result_from_probs(
                cache.probabilities(a, s), frag.num_qubits, shots, rng
            )
            for (a, s), rng in zip(combos, rngs)
        ]

    def run_chain_variants(
        self,
        chain,
        index: int,
        combos,
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
        cache=None,
    ) -> list[ExecutionResult]:
        """Chain alias of :meth:`run_tree_variants` (a linear tree)."""
        return self.run_tree_variants(
            chain, index, combos, shots=shots, seed=seed, cache=cache
        )

    def exact_probabilities(self, circuit: Circuit) -> np.ndarray:
        """Ground-truth distribution (used for Fig. 3's reference)."""
        return simulate_statevector(circuit).probabilities()
