"""Noisy fake-hardware backend (the IBM-device stand-in).

Pipeline per job:

1. transpile the logical circuit to the device (native basis + routing),
2. evolve a density matrix, interleaving the noise model's channels after
   each gate — on the :class:`WireRegister` of wires the job touches (its
   gate wires and the final positions of its logical wires), never on
   device wires that stay in ``|0⟩`` and are marginalised away anyway,
3. push the outcome distribution through the readout confusion matrices,
4. un-permute the routed layout back to logical wires,
5. sample multinomial counts and charge the timing model to the virtual
   clock (duration, gate count and depth from one
   :meth:`~repro.backends.timing.DeviceTimingModel.walk` of the circuit).

Everything is deterministic given a seed.  The noise strength scales with
transpiled gate counts, so deeper/wider circuits degrade more — the property
Fig. 3 exercises.

Fragment variants take a fast path:
:meth:`FakeHardwareBackend.run_tree_variants` serves every
preparation/measurement variant of a fragment from its shared
:class:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache` — each
fragment body is transpiled once and evolved once per entering Hermitian
basis state instead of once per variant, on the body's touched wires only —
while charging the timing model per variant job exactly as circuit-level
execution would: the cache's
:meth:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache.job_profile`
walks each variant from memoised prep and body pieces, bit-identical to
walking its assembled physical circuit.
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

__all__ = ["FakeHardwareBackend", "WireRegister", "finalize_physical_probs"]


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


class WireRegister:
    """The physical wires one noisy job evolves, in density-tensor axis order.

    A job only needs the wires its transpiled circuit can change or report:
    every gate wire, the final positions ``layout[:width]`` of its logical
    wires, and any ``extra`` wire prepared outside the circuit.  Every other
    device wire stays in ``|0⟩⟨0|`` and is marginalised away after readout,
    so leaving it out of the register changes the result only by roundoff
    while shrinking each density tensor by 4× per dropped wire.  Noise rules
    still see physical qubit numbers (:func:`evolve_noisy_tensor` maps
    them); :meth:`finalize` maps the readout errors and the layout onto the
    register before the shared :func:`finalize_physical_probs` tail.
    """

    __slots__ = ("wires", "width", "_readout", "_layout")

    def __init__(
        self, wires: Sequence[int], layout: Sequence[int], width: int, readout: dict
    ) -> None:
        self.wires = tuple(wires)
        self.width = int(width)
        local = {w: i for i, w in enumerate(self.wires)}
        self._readout = {local[q]: e for q, e in readout.items() if q in local}
        outputs = [local[p] for p in layout[:width]]
        # wires beyond the logical outputs are marginalised in any order
        self._layout = outputs + sorted(set(range(len(self.wires))) - set(outputs))

    @classmethod
    def touched(
        cls,
        physical: Circuit,
        layout: Sequence[int],
        width: int,
        readout: dict,
        extra: Sequence[int] = (),
    ) -> "WireRegister":
        """Register of ``physical``: gate wires ∪ ``layout[:width]`` ∪ ``extra``."""
        wires = set(layout[:width]).union(extra)
        for inst in physical:
            if inst.name != "barrier":
                wires.update(inst.qubits)
        return cls(sorted(wires), layout, width, readout)

    def zero_tensor(self) -> np.ndarray:
        """``|0..0⟩⟨0..0|`` on the register."""
        return zero_density_tensor(len(self.wires))

    def finalize(self, probs: np.ndarray) -> np.ndarray:
        """Clip and trace-check a raw register diagonal, then read it out.

        Raises :class:`~repro.exceptions.SimulationError` when the diagonal
        lost trace: CPTP channels preserve it, so drift means a bug upstream.
        """
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if abs(total - 1.0) > 1e-6:
            raise SimulationError(f"noisy simulation lost trace: {total}")
        return finalize_physical_probs(
            probs / total, self._readout, self._layout, self.width
        )


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
    def _noisy_probabilities(
        self, physical: Circuit, layout: Sequence[int], width: int
    ) -> np.ndarray:
        """Exact logical outcome distribution of the noisy physical circuit,
        evolved on the wires it touches (see :class:`WireRegister`)."""
        reg = WireRegister.touched(physical, layout, width, self.noise_model.readout)
        t = evolve_noisy_tensor(
            reg.zero_tensor(), physical, self.noise_model, reg.wires
        )
        return reg.finalize(probabilities_from_tensor(t, len(reg.wires), clip=False))

    def _execute(
        self, circuit: Circuit, shots: int, rng: np.random.Generator
    ) -> ExecutionResult:
        physical, layout = transpile(circuit, self.coupling)
        probs = self._noisy_probabilities(physical, layout, circuit.num_qubits)
        counts = sample_counts(probs, shots, seed=rng, num_qubits=circuit.num_qubits)
        duration, ops, depth = self.timing.profile(physical)
        return ExecutionResult(
            counts=counts,
            shots=shots,
            num_qubits=circuit.num_qubits,
            seconds=self._charge(duration, circuit.name, shots),
            metadata=self._job_metadata(ops, depth, layout),
        )

    def _charge(self, duration: float, label: str, shots: int) -> float:
        seconds = self.timing.duration_job_seconds(duration, shots)
        self.clock.charge(seconds, label=f"job:{label}")
        return seconds

    def _job_metadata(self, ops: int, depth: int, layout: Sequence[int]) -> dict:
        # ops/depth come from DeviceTimingModel.walk, which skips barriers
        # (zero-duration fences): only real gates are reported
        return {
            "backend": self.name,
            "transpiled_ops": ops,
            "transpiled_depth": depth,
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
            duration, ops, depth = cache.job_profile(inits, setting, self.timing)
            counts = sample_counts(
                probs, shots, seed=rng, num_qubits=frag.num_qubits
            )
            out.append(
                ExecutionResult(
                    counts=counts,
                    shots=shots,
                    num_qubits=frag.num_qubits,
                    seconds=self._charge(duration, physical.name, shots),
                    metadata=self._job_metadata(ops, depth, cache.layout()),
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
