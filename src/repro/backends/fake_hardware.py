"""Noisy fake-hardware backend (the IBM-device stand-in).

Pipeline per job:

1. transpile the logical circuit to the device (native basis + routing),
2. evolve a density matrix, interleaving the noise model's channels after
   each gate,
3. push the outcome distribution through the readout confusion matrices,
4. un-permute the routed layout back to logical wires,
5. sample multinomial counts and charge the timing model to the virtual
   clock.

Everything is deterministic given a seed.  The noise strength scales with
transpiled gate counts, so deeper/wider circuits degrade more — the property
Fig. 3 exercises.

Fragment variants take a fast path:
:meth:`FakeHardwareBackend.run_tree_variants` serves every
preparation/measurement variant of a fragment from its shared
:class:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache` — each
fragment body is transpiled once and evolved once per entering Hermitian
basis state instead of once per variant — while charging the timing model
per variant job exactly as circuit-level execution would.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import Backend, ExecutionResult
from repro.backends.timing import DeviceTimingModel
from repro.circuits.circuit import Circuit
from repro.exceptions import BackendError, SimulationError
from repro.noise.model import NoiseModel
from repro.noise.readout import apply_readout_error
from repro.sim.density import (
    evolve_noisy_tensor,
    probabilities_from_tensor,
    zero_density_tensor,
)
from repro.sim.sampler import sample_counts
from repro.transpile.coupling import CouplingMap
from repro.transpile.pipeline import transpile
from repro.utils.bits import marginalize_probs, permute_probability_axes
from repro.utils.rng import spawn_rngs

__all__ = ["FakeHardwareBackend", "finalize_physical_probs"]


def finalize_physical_probs(
    probs: np.ndarray,
    readout: dict,
    layout: Sequence[int],
    logical_width: int,
) -> np.ndarray:
    """Post-process a physical-register distribution into logical results.

    Readout confusion matrices → layout un-permutation → marginalisation of
    unused physical wires.  This is *the* definition of steps 3–4 of the
    job pipeline, shared by per-circuit execution and the noisy fragment
    cache so the two paths cannot drift.
    """
    n_phys = int(np.log2(probs.size))
    probs = apply_readout_error(probs, readout, n_phys)
    # Physical wire layout[i] holds logical wire i: permute back, then
    # marginalise away unused physical wires beyond the logical width.
    perm = [0] * n_phys
    for logical, phys in enumerate(layout):
        perm[phys] = logical
    probs = permute_probability_axes(probs, perm)
    if logical_width < n_phys:
        probs = marginalize_probs(probs, range(logical_width), n_phys)
    return probs


class FakeHardwareBackend(Backend):
    """Density-matrix simulation of a noisy, connectivity-limited device.

    Parameters
    ----------
    coupling:
        Physical topology; jobs are routed onto it.
    noise_model:
        Gate/readout error model (may be trivial for "noise-free hardware").
    timing:
        Wall-time model charged to :attr:`clock` per job.
    name:
        Device name for reports.
    """

    def __init__(
        self,
        coupling: CouplingMap,
        noise_model: NoiseModel,
        timing: DeviceTimingModel | None = None,
        name: str = "fake_device",
    ) -> None:
        super().__init__()
        self.coupling = coupling
        self.noise_model = noise_model
        self.timing = timing or DeviceTimingModel()
        self.name = name
        self.max_qubits = coupling.num_qubits

    # ------------------------------------------------------------------
    def _noisy_probabilities(self, physical: Circuit) -> np.ndarray:
        """Exact outcome distribution of the noisy physical circuit."""
        n = physical.num_qubits
        t = evolve_noisy_tensor(
            zero_density_tensor(n), physical, self.noise_model, n
        )
        probs = probabilities_from_tensor(t, n)
        total = probs.sum()
        if abs(total - 1.0) > 1e-6:
            # CPTP channels preserve trace; drift means a bug upstream.
            raise SimulationError(f"noisy simulation lost trace: {total}")
        return probs / total

    def _execute(
        self, circuit: Circuit, shots: int, rng: np.random.Generator
    ) -> ExecutionResult:
        physical, layout = transpile(circuit, self.coupling)
        probs = self._noisy_probabilities(physical)
        probs = finalize_physical_probs(
            probs, self.noise_model.readout, layout, circuit.num_qubits
        )
        counts = sample_counts(probs, shots, seed=rng, num_qubits=circuit.num_qubits)
        seconds = self._charge(physical, circuit.name, shots)
        return ExecutionResult(
            counts=counts,
            shots=shots,
            num_qubits=circuit.num_qubits,
            seconds=seconds,
            metadata=self._job_metadata(physical, layout),
        )

    def _charge(self, physical: Circuit, label: str, shots: int) -> float:
        seconds = self.timing.job_seconds(physical, shots)
        self.clock.charge(seconds, label=f"job:{label}")
        return seconds

    def _job_metadata(self, physical: Circuit, layout: Sequence[int]) -> dict:
        # barriers are zero-duration fences (the timing model skips them);
        # report only real gates in the op/depth bookkeeping
        gates = [inst for inst in physical if inst.name != "barrier"]
        return {
            "backend": self.name,
            "transpiled_ops": len(gates),
            "transpiled_depth": Circuit(physical.num_qubits, gates).depth(),
            "layout": list(layout),
        }

    # ------------------------------------------------------------------
    def make_tree_fragment_cache(self, fragment, dtype=np.float64):
        """A :class:`NoisyTreeFragmentSimCache` bound to ``fragment``.

        ``dtype`` is accepted for interface parity but ignored: noisy
        caches serve finite-shot sampling, where shot noise dwarfs any
        float32 rounding, and the density-matrix pipeline is not worth
        complicating for it.  The pool assembled by the base
        ``make_tree_cache_pool`` holds one of these per tree fragment.
        """
        from repro.cutting.noisy_cache import NoisyTreeFragmentSimCache

        return NoisyTreeFragmentSimCache(
            fragment, self.coupling, self.noise_model
        )

    def restore_tree_fragment_cache(self, fragment, arrays, meta):
        """Rebuild a warmed device cache in a pool worker (zero transpiles)."""
        from repro.cutting.noisy_cache import NoisyTreeFragmentSimCache

        return NoisyTreeFragmentSimCache.from_arrays(
            fragment, self.coupling, self.noise_model, arrays, meta
        )

    def run_tree_variants(
        self,
        tree,
        index: int,
        combos,
        shots: int = 1000,
        seed: "int | np.random.Generator | None" = None,
        cache=None,
    ) -> list[ExecutionResult]:
        """Serve one tree fragment's variants from its shared noisy cache.

        Distributions come from the per-fragment cache (one transpile and
        one batched Hermitian-basis response evolution per body, one batched
        rotation pass per distinct setting); sampling, RNG streams and
        virtual-clock charges mirror circuit-level execution per variant,
        so counts are bit-identical to submitting each
        :func:`~repro.cutting.variants.tree_variant` through :meth:`run`.
        A ``cache`` of the wrong type or built for a different fragment is
        replaced by a fresh one; device *equivalence* cannot be checked and
        is the caller's contract — the ``cache`` must come from this or an
        identically configured device (as in
        :func:`~repro.parallel.executor.run_tree_fragments_parallel`, where
        worker backends share the probe's pool), otherwise the served
        physics is the cache's device, not this one.
        """
        from repro.cutting.noisy_cache import NoisyTreeFragmentSimCache

        if shots <= 0:
            raise BackendError(f"shots must be positive, got {shots}")
        frag = tree.fragments[index]
        if self.max_qubits is not None and frag.num_qubits > self.max_qubits:
            raise BackendError(
                f"{self.name}: circuit width {frag.num_qubits} exceeds "
                f"device size {self.max_qubits}"
            )
        if (
            not isinstance(cache, NoisyTreeFragmentSimCache)
            or cache.fragment is not frag
        ):
            cache = NoisyTreeFragmentSimCache(
                frag, self.coupling, self.noise_model
            )
        rngs = spawn_rngs(seed, len(combos))
        out: list[ExecutionResult] = []
        for (inits, setting), rng in zip(combos, rngs):
            probs = cache.probabilities(inits, setting)
            physical = cache.physical(inits, setting)
            layout = cache.layout()
            counts = sample_counts(
                probs, shots, seed=rng, num_qubits=frag.num_qubits
            )
            seconds = self._charge(physical, physical.name, shots)
            out.append(
                ExecutionResult(
                    counts=counts,
                    shots=shots,
                    num_qubits=frag.num_qubits,
                    seconds=seconds,
                    metadata=self._job_metadata(physical, layout),
                )
            )
        return out

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
