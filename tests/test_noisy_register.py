"""Touched-wire registers and memoised job profiles of the noisy path.

The fake-hardware backend and its fragment cache evolve only the physical
wires a transpiled job touches: its gate wires, the final positions of its
logical wires and its preparation wires (:class:`WireRegister`).  These
tests pin that restriction against the full-device evolution of
``tests/oracles.py`` at ≤ 1e-12 where it could go wrong — routing through
an ancilla wire, qubit-restricted noise rules with readout on only some
wires, an idle logical wire — and pin the cache's factorised job profile:
every served variant's seconds and metadata equal those of its assembled
physical circuit bit for bit, also from restored and rebound caches.
"""

import numpy as np
import pytest

from repro.backends.fake_hardware import FakeHardwareBackend, WireRegister
from repro.backends.timing import DeviceTimingModel
from repro.circuits.circuit import Circuit
from repro.cutting import partition_tree
from repro.cutting.cut import CutPoint, CutSpec
from repro.cutting.noisy_cache import NoisyTreeFragmentSimCache
from repro.cutting.variants import tree_variant, tree_variant_tuples
from repro.exceptions import SimulationError
from repro.noise.kraus import amplitude_damping, depolarizing, two_qubit_depolarizing
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.transpile.coupling import CouplingMap
from repro.transpile.pipeline import transpile

from test_fast_path_equivalence import random_cut_circuit

from tests.helpers import pair_tree
from tests.oracles import noisy_variant_probs_reference

TOL = 1e-12


def standard_noise(num_qubits: int) -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return nm


def all_variants(tree):
    return [tree_variant_tuples(tree, i) for i in range(tree.num_fragments)]


def assert_cache_matches_full_device(dev, tree):
    """Every variant of every fragment within TOL of full-device evolution;
    returns the pool so callers can inspect the registers."""
    pool = dev.make_tree_cache_pool(tree)
    for i, combos in enumerate(all_variants(tree)):
        for a, s in combos:
            ref = noisy_variant_probs_reference(dev, tree_variant(tree, i, a, s))
            got = pool[i].probabilities(a, s)
            assert np.abs(got - ref).max() <= TOL
    return pool


def register(cache) -> WireRegister:
    return cache._body_state()[3]


def ancilla_tree():
    """Two 2-wire fragments on a device whose logical wires 0 and 1 are
    only coupled through wire 2: every cx routes through the ancilla."""
    qc = Circuit(3).h(0).cx(0, 1).rx(0.3, 1).cx(1, 2).ry(0.7, 2)
    return partition_tree(qc, [CutSpec((CutPoint(1, 2),))])


class TestRegisterMatchesFullDevice:
    def test_routing_through_an_ancilla_wire(self):
        dev = FakeHardwareBackend(
            CouplingMap([(0, 2), (2, 1)], num_qubits=3), standard_noise(3)
        )
        tree = ancilla_tree()
        pool = assert_cache_matches_full_device(dev, tree)
        for cache in pool:
            physical = cache._body_state()[0]
            width = cache.fragment.num_qubits
            assert width == 2
            assert any(q >= width for inst in physical for q in inst.qubits)
            assert register(cache).wires == (0, 1, 2)

    def test_qubit_restricted_noise_and_partial_readout(self):
        nm = NoiseModel()
        nm.add_gate_noise(["sx", "rz"], depolarizing(3e-2), qubits=[1])
        nm.add_gate_noise(["sx"], amplitude_damping(2e-2), qubits=[2])
        nm.add_gate_noise(["cx"], two_qubit_depolarizing(5e-2), qubits=[1, 2])
        nm.add_gate_noise(["cx"], depolarizing(1e-2))
        nm.add_readout_error(0, ReadoutError(p01=0.02, p10=0.05))
        nm.add_readout_error(2, ReadoutError(p01=0.04, p10=0.01))
        nm.add_readout_error(5, ReadoutError(p01=0.3, p10=0.3))
        dev = FakeHardwareBackend(CouplingMap.linear(6), nm)
        qc = Circuit(4).h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).sx(2).cx(2, 3).h(3)
        tree = partition_tree(qc, [CutSpec((CutPoint(1, 2),))])
        pool = assert_cache_matches_full_device(dev, tree)
        # wire 5 (the only strong readout error) is outside every register
        assert all(5 not in register(c).wires for c in pool)

    def test_idle_logical_wire(self):
        dev = FakeHardwareBackend(CouplingMap.linear(6), standard_noise(6))
        qc = Circuit(4).h(0).cx(0, 1).rx(0.9, 1).cx(1, 2).h(2)
        tree = partition_tree(qc, [CutSpec((CutPoint(1, 2),))])
        idle = [
            (i, q)
            for i, frag in enumerate(tree.fragments)
            for q in range(frag.num_qubits)
            if not any(q in inst.qubits for inst in frag.circuit)
        ]
        assert idle, "the circuit must leave a logical wire without gates"
        pool = assert_cache_matches_full_device(dev, tree)
        for i, q in idle:
            layout = pool[i].layout()
            assert layout[q] in register(pool[i]).wires
        # the restriction is real: no register spans the whole device
        assert all(len(register(c).wires) < 6 for c in pool)

    @pytest.mark.parametrize("case", ["ancilla", "partial"])
    def test_per_circuit_jobs_match_full_device(self, case):
        if case == "ancilla":
            dev = FakeHardwareBackend(
                CouplingMap([(0, 2), (2, 1)], num_qubits=3), standard_noise(3)
            )
            qc = Circuit(2).h(0).cx(0, 1).rx(0.2, 1)
        else:
            dev = FakeHardwareBackend(CouplingMap.linear(6), standard_noise(6))
            qc = Circuit(3).h(0).cx(0, 2).ry(0.5, 2)
        physical, layout = transpile(qc, dev.coupling)
        got = dev._noisy_probabilities(physical, layout, qc.num_qubits)
        ref = noisy_variant_probs_reference(dev, qc)
        assert np.abs(got - ref).max() <= TOL


class TestLostTrace:
    def test_cache_finalize_raises_simulation_error(self):
        dev = FakeHardwareBackend(CouplingMap.linear(4), standard_noise(4))
        cache = dev.make_tree_cache_pool(ancilla_tree())[1]
        m = len(register(cache).wires)
        half = np.full(1 << m, 0.5 / (1 << m))
        with pytest.raises(SimulationError, match="lost trace"):
            cache._finalize(half)

    def test_register_finalize_raises_simulation_error(self):
        reg = WireRegister((0, 1), [0, 1], 2, {})
        with pytest.raises(SimulationError, match="lost trace"):
            reg.finalize(np.full(4, 0.125))


def reference_metadata(dev, physical, layout) -> dict:
    """Job metadata computed from the assembled circuit, independently of
    the timing model's walk."""
    gates = [inst for inst in physical if inst.name != "barrier"]
    return {
        "backend": dev.name,
        "transpiled_ops": len(gates),
        "transpiled_depth": Circuit(physical.num_qubits, gates).depth(),
        "layout": list(layout),
    }


def reference_seconds(timing, physical, shots) -> float:
    """Job seconds of the assembled circuit from a plain critical-path walk."""
    level = [0.0] * physical.num_qubits
    for inst in physical:
        if inst.name == "barrier":
            continue
        dt = timing.gate_time_2q if len(inst.qubits) >= 2 else timing.gate_time_1q
        t = max(level[q] for q in inst.qubits) + dt
        for q in inst.qubits:
            level[q] = t
    per_shot = max(level) + timing.readout_time + timing.reset_time
    return timing.job_overhead + shots * per_shot


def profiled_device() -> FakeHardwareBackend:
    # gate times with long binary expansions, so any change in the order of
    # the duration sums would show up in the last bits
    timing = DeviceTimingModel(gate_time_1q=3.7e-8, gate_time_2q=2.9e-7)
    return FakeHardwareBackend(
        CouplingMap.ibm_t_shape_5q(), standard_noise(5), timing=timing
    )


def profile_tree():
    """A routed two-cut pair (the shape of the fast-path equivalence tests)."""
    return pair_tree(*random_cut_circuit(2, 1302))


def serve(dev, tree, caches, shots=300, seed=9):
    return [
        dev.run_tree_variants(tree, i, combos, shots=shots, seed=seed, cache=c)
        for i, (combos, c) in enumerate(zip(all_variants(tree), caches))
    ]


def assert_same_results(a, b):
    for ra, rb in zip(a, b):
        assert len(ra) == len(rb)
        for x, y in zip(ra, rb):
            assert x.counts == y.counts
            assert x.seconds == y.seconds
            assert x.metadata == y.metadata


class TestJobProfile:
    def test_served_seconds_and_metadata_match_assembled_circuits(self):
        dev = profiled_device()
        tree = profile_tree()
        pool = dev.make_tree_cache_pool(tree)
        shots = 1234
        results = serve(dev, tree, pool, shots=shots)
        for i, combos in enumerate(all_variants(tree)):
            for (a, s), res in zip(combos, results[i]):
                physical = pool[i].physical(a, s)
                assert res.seconds == dev.timing.job_seconds(physical, shots)
                assert res.seconds == reference_seconds(dev.timing, physical, shots)
                assert res.metadata == reference_metadata(
                    dev, physical, pool[i].layout()
                )
                assert pool[i].job_profile(a, s, dev.timing) == dev.timing.profile(
                    physical
                )

    def test_restored_and_rebound_caches_serve_identically(self, monkeypatch):
        import repro.cutting.noisy_cache as nc

        dev = profiled_device()
        tree = profile_tree()
        pool = dev.make_tree_cache_pool(tree)
        served = serve(dev, tree, pool)

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        restored = []
        for frag, cache in zip(tree.fragments, pool):
            arrays, meta = cache.export_arrays()
            arrays = {k: v.copy() for k, v in arrays.items()}
            restored.append(
                NoisyTreeFragmentSimCache.from_arrays(
                    frag, dev.coupling, dev.noise_model, arrays, meta
                )
            )
        assert_same_results(served, serve(dev, tree, restored))
        assert all(c.stats["transpiles"] == 0 for c in restored)
        for cache, twin in zip(pool, restored):
            assert register(twin).wires == register(cache).wires

        twin_tree = profile_tree()
        rebound = [c.rebind(f) for c, f in zip(pool, twin_tree.fragments)]
        assert_same_results(served, serve(dev, twin_tree, rebound))
        for cache, clone in zip(pool, rebound):
            assert clone._walks is cache._walks
            assert clone._preps_lowered is cache._preps_lowered
            assert clone._rot_lowered is cache._rot_lowered
        assert calls == []
