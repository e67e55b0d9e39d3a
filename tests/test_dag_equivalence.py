"""Equivalence of fragment-DAG cutting against brute-force references.

The PR that generalised fragment *trees* to fragment *DAGs* (joint
preparation groups in :mod:`repro.cutting.tree`, the searched
:class:`~repro.cutting.contraction.ContractionPlan` replacing the fixed
leaves-to-root order in :mod:`repro.cutting.reconstruction`) must be
exact physics plus a pure architecture change:

* :func:`partition_tree` must produce genuine DAG topologies — diamonds,
  multi-source double parents, branchy 5/6-fragment shapes — with
  joint-prep nodes whose flat ``prep_local`` is the group-ordered
  concatenation of the per-group entering wires;
* the planned network contraction has to match the brute-force reference
  (a Python row-loop over the full basis product across *all* cut
  groups) and the uncut statevector to ≤ 1e-9, over a hypothesis battery
  of random DAG topologies, full and neglected pools, every planner;
* noisy DAG data must be bit-identically reproducible (same seed → same
  records), mode-independent (serial == thread, ledgers agreeing in
  canonical form), and served under the N-transpile pool law extended to
  joint prep groups (one body transpile per node, ``4^{K_in,flat}`` body
  evolutions);
* **tree degeneracy**: on pure-tree inputs ``plan=None`` must run the
  fixed leaves-to-root plan, and every searched plan must agree with it
  to ≤ 1e-9;
* the sparse/pruned network path must honour the rigorous L1 bound.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.core.neglect import reduced_bases
from repro.core.pipeline import cut_and_run_tree
from repro.cutting import partition_tree
from repro.cutting.contraction import (
    ContractionPlan,
    dp_plan,
    fixed_plan,
    greedy_plan,
    network_spec_for_tree,
)
from repro.cutting.execution import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.cutting.sparse import threshold, top_k
from repro.cutting.variants import tree_variant_tuples
from repro.exceptions import ReconstructionError
from repro.harness.scaling import dag_cut_circuit, tree_cut_circuit
from repro.metrics.distances import total_variation
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.sim import simulate_statevector
from repro.transpile.coupling import CouplingMap

from tests.oracles import reconstruct_tree_distribution_reference

TOL = 1e-9

#: named DAG topologies of the battery — ``edges[g] = (src, dst)`` per cut
#: group, exactly the :func:`repro.harness.scaling.dag_cut_circuit` input
DIAMOND = [(0, 1), (0, 2), (1, 3), (2, 3)]
MULTI_SOURCE = [(0, 2), (1, 2)]
BRANCHY5 = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]
SIX = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)]
TOPOLOGIES = [DIAMOND, MULTI_SOURCE, BRANCHY5, SIX]

_slow = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_dag(edges, cuts_per_group=1, seed=0, **kwargs):
    qc, specs = dag_cut_circuit(
        edges, cuts_per_group, fresh_per_fragment=1, depth=2,
        seed=seed, **kwargs,
    )
    return qc, partition_tree(qc, specs)


def make_noisy_device(num_qubits: int = 8) -> FakeHardwareBackend:
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return FakeHardwareBackend(
        CouplingMap.linear(num_qubits), nm, name="dag_test"
    )


def assert_records_identical(a, b):
    for ra, rb in zip(a.records, b.records):
        assert set(ra) == set(rb)
        for k in ra:
            np.testing.assert_array_equal(ra[k], rb[k])


# ---------------------------------------------------------------------------
# topology: partition_tree builds genuine DAGs
# ---------------------------------------------------------------------------


class TestDagPartition:
    def test_diamond_shape(self):
        _, tree = make_dag(DIAMOND, seed=401)
        assert tree.num_fragments == 4
        assert not tree.is_tree and not tree.is_chain
        sink = tree.fragments[3]
        assert sink.in_groups == [2, 3] and sink.num_parents == 2
        assert sink.in_group is None
        assert tree.parents(3) == [1, 2]
        # flat prep layout is the group-ordered concatenation
        assert sink.prep_local == [
            w for h in sink.in_groups for w in sink.prep_local_by_group[h]
        ]
        assert sink.prep_offset(3) == len(sink.prep_local_by_group[2])

    def test_multi_source_shape(self):
        """Two roots feeding one joint-prep sink — a DAG with no tree root."""
        _, tree = make_dag(MULTI_SOURCE, seed=402)
        assert tree.num_fragments == 3
        roots = [f for f in tree.fragments if f.num_parents == 0]
        assert len(roots) == 2
        sink = tree.fragments[2]
        assert sink.in_groups == [0, 1]

    @pytest.mark.parametrize("edges", [BRANCHY5, SIX])
    def test_wide_shapes(self, edges):
        _, tree = make_dag(edges, seed=403)
        assert tree.num_fragments == len({v for e in edges for v in e})
        assert not tree.is_tree
        assert sum(f.num_parents for f in tree.fragments) == len(edges)
        joint = [f for f in tree.fragments if f.num_parents > 1]
        assert joint  # every battery shape has at least one joint-prep node

    def test_multi_cut_joint_groups(self):
        _, tree = make_dag(DIAMOND, cuts_per_group=[1, 1, 2, 1], seed=404)
        assert tree.group_sizes == [1, 1, 2, 1]
        sink = tree.fragments[3]
        assert sink.num_prep == 3
        assert len(sink.prep_local_by_group[2]) == 2

    def test_tree_edges_still_build_trees(self):
        _, tree = make_dag([(0, 1), (0, 2), (1, 3)], seed=405)
        assert tree.is_tree

    def test_sibling_block_after_anchor(self):
        """Second cascade detection pass: the sibling group's upstream
        block sits *after* the first group's anchor (so it is not an
        anchor ancestor) and shares a wire with the root — a triangle
        interaction graph.  Plain absorption mis-attributes the frontier;
        the reserved-wire pass must co-cut the sibling instead."""
        from repro.circuits.circuit import Circuit
        from repro.cutting.cut import CutPoint, CutSpec

        qc = Circuit(3, name="triangle")
        for q in range(3):
            qc.h(q)
        qc.cx(0, 1)  # 3: edge (0,1), then cut wire 1
        qc.cx(0, 2)  # 4: edge (0,2) AFTER the anchor, then cut wire 2
        qc.cx(1, 2)  # 5: closing edge — wires from different fragments
        specs = [
            CutSpec((CutPoint(1, 3),)),
            CutSpec((CutPoint(2, 4),)),
        ]
        tree = partition_tree(qc, specs)
        assert not tree.is_tree
        sink = tree.fragments[-1]
        assert sink.in_groups == [0, 1]
        data = exact_tree_data(tree)
        np.testing.assert_allclose(
            reconstruct_tree_distribution(data),
            simulate_statevector(qc).probabilities(),
            atol=TOL,
        )


# ---------------------------------------------------------------------------
# exact equivalence: planned contraction vs reference vs statevector
# ---------------------------------------------------------------------------


class TestDagExactEquivalence:
    @_slow
    @given(
        topo=st.sampled_from(TOPOLOGIES),
        seed=st.integers(0, 10**6),
        real=st.booleans(),
    )
    def test_planned_contraction_matches_truth_and_reference(
        self, topo, seed, real
    ):
        """Property battery: on a random DAG topology the auto-planned
        network contraction equals the uncut statevector *and* the
        brute-force row-loop over the full cross-group basis product."""
        qc, tree = make_dag(topo, seed=seed, real_blocks=real)
        truth = simulate_statevector(qc).probabilities()
        data = exact_tree_data(tree)
        probs = reconstruct_tree_distribution(data)
        ref = reconstruct_tree_distribution_reference(data)
        np.testing.assert_allclose(probs, truth, atol=TOL)
        np.testing.assert_allclose(probs, ref, atol=TOL)

    @pytest.mark.parametrize("method", ["fixed", "greedy", "dp", "auto"])
    def test_every_planner_agrees(self, method):
        qc, tree = make_dag(BRANCHY5, seed=406)
        data = exact_tree_data(tree)
        auto = reconstruct_tree_distribution(data)
        probs = reconstruct_tree_distribution(data, plan=method)
        np.testing.assert_allclose(probs, auto, atol=TOL)
        np.testing.assert_allclose(
            probs, simulate_statevector(qc).probabilities(), atol=TOL
        )

    def test_explicit_plan_object(self):
        _, tree = make_dag(DIAMOND, seed=407)
        data = exact_tree_data(tree)
        plan = dp_plan(network_spec_for_tree(tree))
        probs = reconstruct_tree_distribution(data, plan=plan)
        np.testing.assert_allclose(
            probs, reconstruct_tree_distribution(data), atol=TOL
        )

    def test_wrong_sized_plan_rejected(self):
        _, tree = make_dag(DIAMOND, seed=407)
        data = exact_tree_data(tree)
        bad = ContractionPlan(num_nodes=3, steps=((0, 1), (0, 2)))
        with pytest.raises(ReconstructionError):
            reconstruct_tree_distribution(data, plan=bad)

    def test_multi_cut_diamond(self):
        """Joint prep groups of width > 1: the flat entering axis splits
        into per-group row axes of unequal length."""
        qc, tree = make_dag(DIAMOND, cuts_per_group=[1, 1, 2, 1], seed=408)
        data = exact_tree_data(tree)
        probs = reconstruct_tree_distribution(data)
        np.testing.assert_allclose(
            probs, simulate_statevector(qc).probabilities(), atol=TOL
        )
        np.testing.assert_allclose(
            probs, reconstruct_tree_distribution_reference(data), atol=TOL
        )

    def test_neglected_pools_consistent(self):
        """Reduced per-group pools slice the same rows on the planned path
        and the reference row-loop (joint groups included)."""
        _, tree = make_dag(DIAMOND, seed=409)
        golden = [None] * tree.num_groups
        golden[2] = {0: "Y"}
        golden[0] = {0: ("X",)}
        bases = [
            reduced_bases(k, gm) if gm else [("I", "X", "Y", "Z")] * k
            for k, gm in zip(tree.group_sizes, golden)
        ]
        data = exact_tree_data(tree)
        probs = reconstruct_tree_distribution(data, bases=bases)
        ref = reconstruct_tree_distribution_reference(data, bases=bases)
        np.testing.assert_allclose(probs, ref, atol=TOL)


# ---------------------------------------------------------------------------
# sparse/pruned network path
# ---------------------------------------------------------------------------


class TestDagPruned:
    def test_top_k_all_matches_dense(self):
        qc, tree = make_dag(DIAMOND, seed=410)
        data = exact_tree_data(tree)
        dense = reconstruct_tree_distribution(data)
        sd = reconstruct_tree_distribution(data, prune=top_k(dense.size))
        assert sd.prune_bound == 0.0
        assert np.array_equal(sd.to_dense(), dense)

    def test_prune_bound_is_rigorous(self):
        _, tree = make_dag(BRANCHY5, seed=411)
        data = exact_tree_data(tree)
        dense = reconstruct_tree_distribution(data, postprocess="raw")
        sd = reconstruct_tree_distribution(
            data, prune=top_k(4), postprocess="raw"
        )
        dropped = np.abs(dense - sd.to_dense()).sum()
        assert dropped <= sd.prune_bound + TOL


# ---------------------------------------------------------------------------
# merge layouts: each merge is one GEMM written in the merged layout
# ---------------------------------------------------------------------------

#: planned dense contraction vs the brute-force oracle
ORACLE_TOL = 1e-12


def merge_shapes(tree, plan):
    """Per plan step: ``(open groups kept by a, by b, shared groups)``."""
    open_groups = {
        i: set(f.in_groups) | set(f.meas_groups)
        for i, f in enumerate(tree.fragments)
    }
    rep = list(range(tree.num_fragments))

    def find(x):
        while rep[x] != x:
            x = rep[x]
        return x

    shapes = []
    for a, b in plan.steps:
        ra, rb = find(a), find(b)
        ga, gb = open_groups[ra], open_groups.pop(rb)
        shared = ga & gb
        shapes.append((ga - shared, gb - shared, shared))
        open_groups[ra] = (ga | gb) - shared
        rep[rb] = ra
    return shapes


def assert_dense_matches_oracle_and_pruned(data, plan):
    """Dense within ORACLE_TOL of the oracle; keep-all pruning bitwise."""
    dense = reconstruct_tree_distribution(data, postprocess="raw", plan=plan)
    np.testing.assert_allclose(
        dense, reconstruct_tree_distribution_reference(data), atol=ORACLE_TOL
    )
    for policy in (top_k(dense.size), threshold(0.0)):
        sd = reconstruct_tree_distribution(
            data, postprocess="raw", prune=policy, plan=plan
        )
        assert sd.prune_bound == 0.0
        assert np.array_equal(sd.to_dense(), dense)


class TestMergeLayouts:
    @pytest.mark.parametrize("method", ["fixed", "greedy", "dp"])
    @pytest.mark.parametrize(
        "topo", TOPOLOGIES, ids=["diamond", "multi-source", "branchy5", "six"]
    )
    def test_planned_merges_match_oracle(self, topo, method):
        _, tree = make_dag(topo, seed=420)
        data = run_tree_fragments(tree, IdealBackend(), shots=500, seed=420)
        assert_dense_matches_oracle_and_pruned(data, method)

    @pytest.mark.parametrize(
        "plan",
        [
            "fixed",
            ContractionPlan(num_nodes=4, steps=((0, 1), (2, 3), (0, 2))),
        ],
        ids=["fixed", "pairs-first"],
    )
    def test_both_sides_keep_open_groups(self, plan):
        """A merge where a and b each keep an open group (GA, GB > 1)."""
        _, tree = make_dag(DIAMOND, cuts_per_group=[1, 2, 1, 2], seed=421)
        data = run_tree_fragments(tree, IdealBackend(), shots=500, seed=421)
        resolved = (
            fixed_plan(network_spec_for_tree(tree))
            if plan == "fixed"
            else plan
        )
        assert any(
            open_a and open_b and shared
            for open_a, open_b, shared in merge_shapes(tree, resolved)
        )
        assert_dense_matches_oracle_and_pruned(data, plan)

    def test_outer_product_of_disjoint_halves(self):
        """A multi-source DAG whose plan first merges the two sources,
        which share no group: the merge is an outer product."""
        _, tree = make_dag(MULTI_SOURCE, seed=422)
        data = run_tree_fragments(tree, IdealBackend(), shots=500, seed=422)
        plan = ContractionPlan(num_nodes=3, steps=((0, 1), (0, 2)))
        open_a, open_b, shared = merge_shapes(tree, plan)[0]
        assert open_a and open_b and not shared
        assert_dense_matches_oracle_and_pruned(data, plan)

    @pytest.mark.parametrize("prune", [None, top_k(1 << 20)])
    @pytest.mark.parametrize(
        "topo,plan",
        [
            (BRANCHY5, "dp"),
            (DIAMOND, ContractionPlan(4, ((0, 1), (2, 3), (0, 2)))),
            (MULTI_SOURCE, ContractionPlan(3, ((0, 1), (0, 2)))),
        ],
    )
    def test_float32_stays_float32_through_every_merge(
        self, monkeypatch, topo, plan, prune
    ):
        import repro.cutting.reconstruction as rec

        merged = []
        merge = rec._merge_clusters

        def spy(a, b, group_sizes, **kwargs):
            out = merge(a, b, group_sizes, **kwargs)
            merged.append((a.t.dtype, b.t.dtype, out.t.dtype))
            return out

        monkeypatch.setattr(rec, "_merge_clusters", spy)
        _, tree = make_dag(topo, seed=423)
        data = exact_tree_data(tree)
        p32 = reconstruct_tree_distribution(
            data, dtype=np.float32, prune=prune, plan=plan, postprocess="raw"
        )
        assert len(merged) == tree.num_fragments - 1
        assert all(dt == np.float32 for dts in merged for dt in dts)
        if prune is not None:
            p32 = p32.to_dense()
        assert p32.dtype == np.float32
        p64 = reconstruct_tree_distribution(data, plan=plan, postprocess="raw")
        np.testing.assert_allclose(p32, p64, atol=1e-6)


# ---------------------------------------------------------------------------
# noisy DAG execution: determinism, mode-independence, pool law
# ---------------------------------------------------------------------------


class TestDagNoisy:
    def test_same_seed_bit_identical(self):
        _, tree = make_dag(DIAMOND, seed=412)
        dev = make_noisy_device()
        a = run_tree_fragments(tree, dev, shots=200, seed=7)
        b = run_tree_fragments(tree, make_noisy_device(), shots=200, seed=7)
        assert_records_identical(a, b)
        pa = reconstruct_tree_distribution(a)
        pb = reconstruct_tree_distribution(b)
        assert np.array_equal(pa, pb)

    def test_noisy_planned_matches_reference(self):
        _, tree = make_dag(MULTI_SOURCE, seed=413)
        data = run_tree_fragments(
            tree, make_noisy_device(), shots=400, seed=9
        )
        probs = reconstruct_tree_distribution(data)
        ref = reconstruct_tree_distribution_reference(data)
        np.testing.assert_allclose(probs, ref, atol=TOL)

    def test_serial_equals_thread(self):
        """Mode-independence extends to joint-prep DAGs: worker count and
        thread scheduling never leak into the records."""
        from repro.parallel import run_tree_fragments_parallel

        _, tree = make_dag(DIAMOND, seed=414)
        runs = {
            mode: run_tree_fragments_parallel(
                tree, IdealBackend, shots=300, seed=5, mode=mode,
                max_workers=4,
            )
            for mode in ("serial", "thread")
        }
        assert_records_identical(runs["serial"], runs["thread"])

    def test_retry_ledgers_agree_canonically(self):
        from repro.backends import FaultInjectionBackend, FaultPlan
        from repro.cutting import AttemptLedger, RetryPolicy
        from repro.parallel import run_tree_fragments_parallel

        _, tree = make_dag(MULTI_SOURCE, seed=415)
        plan = FaultPlan(
            seed=3, transient_rate=0.3, max_consecutive_transients=2
        )
        clean = run_tree_fragments_parallel(
            tree, IdealBackend, shots=200, seed=6, mode="serial"
        )
        ledgers, runs = {}, {}
        for mode in ("serial", "thread"):
            ledgers[mode] = AttemptLedger()
            runs[mode] = run_tree_fragments_parallel(
                tree,
                lambda: FaultInjectionBackend(IdealBackend(), plan),
                shots=200,
                seed=6,
                mode=mode,
                max_workers=4,
                retry=RetryPolicy(max_attempts=4),
                ledger=ledgers[mode],
            )
        assert_records_identical(clean, runs["serial"])
        assert_records_identical(clean, runs["thread"])
        assert ledgers["serial"].canonical() == ledgers["thread"].canonical()

    def test_pool_law_extends_to_joint_prep(self):
        """The N-transpile law on a DAG: one body transpile per node and
        ``4^{K_in,flat}`` body evolutions — the joint node's flat entering
        width is the *product* over its entering groups."""
        _, tree = make_dag(DIAMOND, seed=416)
        dev = make_noisy_device()
        pool = dev.make_tree_cache_pool(tree)
        data = run_tree_fragments(tree, dev, shots=100, seed=1, pool=pool)
        assert data.num_variants == sum(
            len(tree_variant_tuples(tree, i))
            for i in range(tree.num_fragments)
        )
        sink = tree.fragments[3]
        assert sink.num_prep == sum(
            tree.group_sizes[h] for h in sink.in_groups
        )
        for i, cache in enumerate(pool):
            frag = tree.fragments[i]
            assert cache.stats["transpiles"] == 1
            assert cache.stats["body_evolutions"] == 4**frag.num_prep
        # re-serving the same variants costs nothing new
        run_tree_fragments(tree, dev, shots=100, seed=2, pool=pool)
        for cache in pool:
            assert cache.stats["transpiles"] == 1


# ---------------------------------------------------------------------------
# tree degeneracy: the DAG engine must not disturb pure-tree runs
# ---------------------------------------------------------------------------


class TestTreeDegeneracy:
    def _tree(self, seed=417):
        qc, specs = tree_cut_circuit(
            [0, 0, 1], 1, fresh_per_fragment=2, depth=2, seed=seed
        )
        return qc, partition_tree(qc, specs)

    def test_default_plan_is_fixed_plan(self):
        """``plan=None`` on a tree runs the fixed leaves-to-root plan — the
        result is bit-identical (array_equal) to asking for it, and the
        default never pays for a plan search."""
        from repro.cutting.reconstruction import _resolve_plan

        qc, tree = self._tree()
        plan = _resolve_plan(tree, None, None)
        assert plan == fixed_plan(network_spec_for_tree(tree))
        data = exact_tree_data(tree)
        raw = reconstruct_tree_distribution(data, postprocess="raw")
        assert np.array_equal(
            raw, reconstruct_tree_distribution(data, postprocess="raw", plan="fixed")
        )
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(raw, truth, atol=TOL)

    @pytest.mark.parametrize("method", ["fixed", "greedy", "dp"])
    def test_network_path_agrees_on_trees(self, method):
        qc, tree = self._tree()
        data = exact_tree_data(tree)
        np.testing.assert_allclose(
            reconstruct_tree_distribution(data, plan=method),
            reconstruct_tree_distribution(data),
            atol=TOL,
        )

    def test_noisy_tree_run_unchanged_by_dag_engine(self):
        """Same-seed noisy tree data and its default reconstruction stay
        bit-identically reproducible (RNG streams untouched)."""
        _, tree = self._tree(seed=418)
        a = run_tree_fragments(
            tree, make_noisy_device(), shots=150, seed=11
        )
        b = run_tree_fragments(
            tree, make_noisy_device(), shots=150, seed=11
        )
        assert_records_identical(a, b)
        assert np.array_equal(
            reconstruct_tree_distribution(a),
            reconstruct_tree_distribution(b),
        )


# ---------------------------------------------------------------------------
# acceptance: end-to-end pipeline on a DAG the seed engine rejected
# ---------------------------------------------------------------------------


class TestDagPipeline:
    @pytest.mark.parametrize("plan", [None, "dp"])
    def test_cut_and_run_tree_on_dag(self, plan):
        """A dense-graph cut (diamond fragment connectivity — cyclic as an
        undirected graph, so no tree decomposition exists) runs end to end
        and lands within the predicted TV bound."""
        qc, specs = dag_cut_circuit(
            DIAMOND, 1, fresh_per_fragment=1, depth=2, seed=419,
            real_blocks=True,
        )
        truth = simulate_statevector(qc).probabilities()
        result = cut_and_run_tree(
            qc, IdealBackend(), specs, shots=4000, seed=23, plan=plan
        )
        assert not result.tree.is_tree
        measured = total_variation(
            np.asarray(result.probabilities), truth
        )
        assert measured <= result.tv_bound()
        assert measured <= 0.2

    def test_search_scores_dag_candidates(self):
        """``topology="dag"`` lifts the is-tree feasibility filter, so the
        cost objective can score DAG spec sets; found specs still replay
        through ``partition_tree``."""
        from repro.cutting.search import find_cut_specs
        from repro.exceptions import CutError

        qc, _ = dag_cut_circuit(
            BRANCHY5, 1, fresh_per_fragment=2, depth=2, seed=421
        )
        specs = find_cut_specs(qc, qc.num_qubits - 1, topology="dag")
        tree = partition_tree(qc, specs)
        assert all(
            f.num_qubits <= qc.num_qubits - 1 for f in tree.fragments
        )
        with pytest.raises(CutError, match="topology"):
            find_cut_specs(qc, 4, topology="forest")

    def test_exact_backend_recovers_truth(self):
        qc, specs = dag_cut_circuit(
            SIX, 1, fresh_per_fragment=1, depth=2, seed=420
        )
        truth = simulate_statevector(qc).probabilities()
        tree = partition_tree(qc, specs)
        data = exact_tree_data(tree)
        np.testing.assert_allclose(
            reconstruct_tree_distribution(data), truth, atol=TOL
        )
