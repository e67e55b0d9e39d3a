"""Equivalence of the noisy fragment cache against per-variant execution.

:class:`repro.cutting.noisy_cache.NoisyTreeFragmentSimCache` must be a
pure performance change: every distribution the fake-hardware fast path
serves has to match transpiling and density-evolving each physical variant
circuit from scratch (the per-variant ``_execute`` reference semantics) to
≤ 1e-9 — across random single-cut circuits (the 2-node tree), ``K ∈ {1, 2,
3}``, full and reduced/neglected variant pools, trivial and
depolarizing+amplitude-damping noise, and with readout error on and off.
The cost side of the contract is pinned too: exactly one transpile per
fragment body, one body evolution at the measuring root and ``4^K`` at the
preparing leaf, no matter how many variants are served.
"""

import numpy as np
import pytest

from repro.backends.fake_hardware import FakeHardwareBackend
from repro.backends.base import Backend
from repro.core.neglect import tree_reduced_variants
from repro.core.pipeline import cut_and_run
from repro.cutting.execution import _split_joint_probs, run_tree_fragments
from repro.cutting.variants import tree_variant, tree_variant_tuples
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.parallel import run_tree_fragments_parallel
from repro.transpile.coupling import CouplingMap
from repro.transpile.pipeline import transpile
from test_fast_path_equivalence import random_cut_circuit

from tests.helpers import pair_tree
from tests.oracles import noisy_variant_probs_reference

TOL = 1e-9

#: noise configurations the satellite demands: trivial, gate noise without
#: readout error, gate noise with readout error
NOISE_CONFIGS = ("trivial", "gates", "gates+readout")


def make_noise(config: str, num_qubits: int = 5) -> NoiseModel:
    nm = NoiseModel()
    if config == "trivial":
        return nm
    # depolarizing + amplitude damping, including on the rz/sx gates the
    # variant rotations lower to — the fast path must carry the variant
    # gates' own noise, not just the body's
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    if config == "gates+readout":
        for q in range(num_qubits):
            nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return nm


def make_device(config: str, topology: str = "linear") -> FakeHardwareBackend:
    coupling = (
        CouplingMap.linear(5)
        if topology == "linear"
        else CouplingMap.ibm_t_shape_5q()
    )
    return FakeHardwareBackend(
        coupling, make_noise(config), name=f"test[{config},{topology}]"
    )


def tree_for(K: int, seed: int):
    qc, spec = random_cut_circuit(K, seed)
    return pair_tree(qc, spec)


def full_variants(tree):
    return [tree_variant_tuples(tree, i) for i in range(tree.num_fragments)]


def assert_pool_matches_reference(dev, tree, variants):
    pool = dev.make_tree_cache_pool(tree)
    for i, combos in enumerate(variants):
        for a, s in combos:
            ref = noisy_variant_probs_reference(dev, tree_variant(tree, i, a, s))
            np.testing.assert_allclose(
                pool[i].probabilities(a, s), ref, atol=TOL
            )


class TestCacheMatchesPerVariantExecution:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("config", NOISE_CONFIGS)
    def test_full_variant_pools(self, K, config):
        tree = tree_for(K, 1100 + K)
        assert_pool_matches_reference(make_device(config), tree, full_variants(tree))

    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("config", ["gates+readout"])
    def test_reduced_and_neglected_pools(self, K, config):
        """Golden pipelines pass reduced pools; the cache must serve them."""
        tree = tree_for(K, 1200 + K)
        golden = {0: "Y"} if K == 1 else {0: "Y", K - 1: ("X", "Z")}
        _, variants = tree_reduced_variants(tree, [golden])
        assert_pool_matches_reference(make_device(config), tree, variants)

    @pytest.mark.parametrize("config", NOISE_CONFIGS)
    def test_routed_topology(self, config):
        """SWAP insertion and layout permutation survive the factorisation."""
        tree = tree_for(2, 1302)
        dev = make_device(config, topology="t_shape")
        assert_pool_matches_reference(dev, tree, full_variants(tree))

    def test_physical_circuits_match_transpile(self):
        """The cache's assembled physical circuits equal a fresh transpile,
        instruction for instruction — the invariant behind one-transpile."""
        tree = tree_for(2, 1402)
        dev = make_device("gates", topology="t_shape")
        pool = dev.make_tree_cache_pool(tree)
        for i, combos in enumerate(full_variants(tree)):
            for a, s in combos:
                assembled = pool[i].physical(a, s)
                physical, _ = transpile(tree_variant(tree, i, a, s), dev.coupling)
                assert len(assembled) == len(physical)
                for x, y in zip(assembled, physical):
                    assert x.name == y.name
                    assert x.qubits == y.qubits
                    assert x.params == pytest.approx(y.params, abs=1e-12)


class TestRunTreeVariantsFastPath:
    def test_counts_and_clock_identical_to_execution(self):
        """Same RNG streams + same distributions ⇒ identical counts, and the
        timing model charges exactly what per-variant jobs would."""
        tree = tree_for(2, 1502)
        fast_dev = make_device("gates+readout")
        ref_dev = make_device("gates+readout")
        for i, combos in enumerate(full_variants(tree)):
            fast = fast_dev.run_tree_variants(tree, i, combos, shots=4000, seed=17)
            ref = Backend.run_tree_variants(
                ref_dev, tree, i, combos, shots=4000, seed=17
            )
            assert len(fast) == len(ref)
            for f, r in zip(fast, ref):
                assert f.counts == r.counts
                assert f.shots == r.shots
                assert f.num_qubits == r.num_qubits
                assert f.seconds == pytest.approx(r.seconds, rel=1e-12)
                assert f.metadata["transpiled_ops"] == r.metadata["transpiled_ops"]
                assert f.metadata["layout"] == r.metadata["layout"]
        assert fast_dev.clock.now == pytest.approx(ref_dev.clock.now, rel=1e-12)
        # the virtual-clock ledger labels must match per-variant jobs too
        assert [lbl for lbl, _ in fast_dev.clock.log] == [
            lbl for lbl, _ in ref_dev.clock.log
        ]

    def test_run_tree_fragments_uses_fast_path(self):
        """run_tree_fragments on fake hardware == per-variant submission."""
        from repro.utils.rng import as_generator, derive_rng

        tree = tree_for(1, 1601)
        data = run_tree_fragments(tree, make_device("gates"), shots=2000, seed=5)
        ref_dev = make_device("gates")
        rng = as_generator(5)
        for i, combos in enumerate(full_variants(tree)):
            frag = tree.fragments[i]
            # the per-fragment stream run_tree_fragments derives
            results = Backend.run_tree_variants(
                ref_dev, tree, i, combos, shots=2000, seed=derive_rng(rng, 0x60 + i)
            )
            for combo, res in zip(combos, results):
                np.testing.assert_allclose(
                    data.records[i][combo],
                    _split_joint_probs(
                        res.probabilities(), frag.out_local, frag.cut_local
                    ),
                    atol=TOL,
                )

    def test_parallel_matches_serial_and_shares_cache(self):
        tree = tree_for(2, 1702)
        factory = lambda: make_device("gates+readout")  # noqa: E731
        a = run_tree_fragments_parallel(
            tree, factory, shots=500, seed=3, max_workers=4, mode="thread"
        )
        b = run_tree_fragments_parallel(
            tree, factory, shots=500, seed=3, mode="serial"
        )
        for ra, rb in zip(a.records, b.records):
            assert set(ra) == set(rb)
            for k in ra:
                np.testing.assert_array_equal(ra[k], rb[k])
        assert a.metadata["cached"]


class TestSimCallCounts:
    """One transpile per fragment body and ``1 + 4^K`` body evolutions,
    however many variants are served."""

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_full_pools_hit_the_law(self, K, monkeypatch):
        import repro.cutting.noisy_cache as nc

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        tree = tree_for(K, 1800 + K)
        dev = make_device("gates+readout")
        pool = dev.make_tree_cache_pool(tree)
        run_tree_fragments(tree, dev, shots=100, seed=0, pool=pool)
        assert len(calls) == 2  # one per fragment body
        assert [c.stats for c in pool] == [
            {"transpiles": 1, "body_evolutions": 1, "rotation_evolutions": 3**K},
            {"transpiles": 1, "body_evolutions": 4**K, "rotation_evolutions": 0},
        ]
        # serving the same pools again costs nothing new
        run_tree_fragments(tree, dev, shots=100, seed=1, pool=pool)
        assert len(calls) == 2
        assert pool[0].stats["body_evolutions"] == 1
        assert pool[1].stats["body_evolutions"] == 4**K

    def test_cut_and_run_shares_one_cache_across_stages(self, monkeypatch):
        """Pilot detection + production execution = still one transpile per
        fragment body and one set of body evolutions."""
        import repro.cutting.noisy_cache as nc

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        from repro.harness.scaling import multi_cut_golden_circuit

        qc, spec = multi_cut_golden_circuit(
            1, extra_up=1, extra_down=1, depth=2, seed=42
        )
        dev = make_device("gates+readout")
        result = cut_and_run(
            qc, dev, cuts=spec, shots=2000, golden="detect", seed=7
        )
        assert len(calls) == 2
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-6)


class TestChainSimCallCounts:
    """The chain extension of the call-count law: an N-fragment chain costs
    exactly N body transpiles on the noisy path — one per fragment, shared
    by every ``(inits, setting)`` variant through the cache pool — with
    ``4^{K_prev}`` body evolutions and ``3^{K}`` batched rotation passes per
    fragment."""

    @pytest.mark.parametrize("num_fragments", [3, 4])
    def test_chain_pool_hits_n_transpile_law(self, num_fragments, monkeypatch):
        import repro.cutting.noisy_cache as nc

        from repro.cutting.chain import partition_chain
        from repro.cutting.execution import run_chain_fragments
        from repro.harness.scaling import chain_cut_circuit

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        qc, specs = chain_cut_circuit(
            num_fragments, 1, fresh_per_fragment=2, depth=2,
            seed=2100 + num_fragments,
        )
        chain = partition_chain(qc, specs)
        dev = make_device("gates+readout")
        pool = dev.make_chain_cache_pool(chain)
        run_chain_fragments(chain, dev, shots=100, seed=0, pool=pool)
        assert len(calls) == num_fragments  # one per fragment body
        for i, cache in enumerate(pool):
            frag = chain.fragments[i]
            assert cache.stats == {
                "transpiles": 1,
                "body_evolutions": 4**frag.num_prep,
                "rotation_evolutions": 3**frag.num_meas if frag.num_meas else 0,
            }
        # serving the same variants again costs nothing new
        run_chain_fragments(chain, dev, shots=100, seed=1, pool=pool)
        assert len(calls) == num_fragments

    def test_cut_and_run_chain_shares_the_pool(self, monkeypatch):
        """cut_and_run_chain builds one pool: N transpiles total."""
        import repro.cutting.noisy_cache as nc

        from repro.core.pipeline import cut_and_run_chain
        from repro.harness.scaling import chain_cut_circuit

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=2200
        )
        dev = make_device("gates+readout")
        result = cut_and_run_chain(qc, dev, specs, shots=500, seed=7)
        assert len(calls) == 3
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("mode", ["detect", "analytic"])
    def test_chain_pilot_and_production_share_the_pool(self, mode, monkeypatch):
        """Golden detection keeps the law: the pilot sweep and the
        production run are served by the same pool, so an N-fragment chain
        still costs exactly N body transpiles (the analytic finder works on
        a transpile-free ideal pool)."""
        import repro.cutting.noisy_cache as nc

        from repro.core.pipeline import cut_and_run_chain
        from repro.harness.scaling import golden_chain_circuit

        calls = []
        real = nc.transpile
        monkeypatch.setattr(
            nc, "transpile", lambda *a, **k: calls.append(1) or real(*a, **k)
        )
        qc, specs, _ = golden_chain_circuit(
            3, planted_groups=(0,), seed=2300
        )
        dev = make_device("gates+readout")
        result = cut_and_run_chain(
            qc, dev, specs, shots=400, golden=mode, pilot_shots=800,
            seed=7, exploit_all=True,
        )
        assert len(calls) == 3  # pilot + production: one per fragment body
        assert result.probabilities.sum() == pytest.approx(1.0, abs=1e-6)
        if mode == "detect":
            assert result.pilot_executions > 0
            assert [len(d) for d in result.detection] == [3, 3]


class TestPreparationNoiseIsExact:
    def test_noisy_prep_coefficients_reproduce_prep_state(self):
        """The Hermitian-basis expansion must carry the preparation gates'
        own noise: coefficients rebuild the exact noisy 2×2 state."""
        from repro.cutting.noisy_cache import HERMITIAN_BASIS_STATES

        tree = tree_for(1, 1900)
        dev = make_device("gates")
        cache = dev.make_tree_cache_pool(tree)[1]
        q = tree.fragments[1].prep_local[0]
        for code in ("Z+", "Z-", "X+", "X-", "Y+", "Y-"):
            c = cache._prep_coefficients(code, q)
            rebuilt = sum(
                ci * b for ci, b in zip(c, HERMITIAN_BASIS_STATES)
            )
            # evolve the lowered prep gates + noise directly
            from repro.linalg.channels import apply_channel

            rho = np.zeros((2, 2), dtype=complex)
            rho[0, 0] = 1.0
            for inst in cache._lowered_prep(code):
                m = inst.gate.matrix()
                rho = m @ rho @ m.conj().T
                for channel, _ in dev.noise_model.channels_for(inst.name, (q,)):
                    rho = apply_channel(rho, channel, (0,), 1)
            np.testing.assert_allclose(rebuilt, rho, atol=TOL)
            assert abs(c.sum() - np.trace(rho).real) < TOL
