"""Equivalence of fragment-tree cutting against brute-force references.

The PR that generalised chains to trees (:mod:`repro.cutting.tree`, the
tree-aware cache pool and the leaves-to-root contraction) must be exact
physics plus a pure architecture change:

* :func:`partition_tree` must produce genuine branched topologies (a
  Y and a 5-node two-level tree with a 2-child interior node) and reject
  non-tree spec sets loudly;
* the tree contraction has to match the brute-force reference (a Python
  row-loop over the *full basis product across all cut groups*) to ≤ 1e-9,
  ideal and fake-hardware data, full and neglected pools;
* exact tree data has to reconstruct the uncut circuit's distribution
  exactly;
* the noisy tree fast path has to reproduce per-variant circuit execution
  bit-identically (counts, clock, metadata) while the cache pool performs
  exactly one body transpile per node (the N-transpile law);
* **chain degeneracy**: a linear spec set run through ``partition_tree`` +
  the tree contraction must be bit-identical (noisy) / ≤ 1e-9 (ideal) to
  the chain path — which itself now routes through the tree engine;
* the batched stacked-rotation warm path must equal the per-setting
  rotation path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.backends.base import Backend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.core.neglect import reduced_bases
from repro.core.pipeline import cut_and_run_chain, cut_and_run_tree
from repro.cutting import partition_chain, partition_tree
from repro.cutting.cache import TreeFragmentSimCache
from repro.cutting.execution import (
    _split_joint_probs,
    exact_chain_data,
    exact_tree_data,
    run_chain_fragments,
    run_tree_fragments,
)
from repro.cutting.reconstruction import (
    build_tree_fragment_tensor,
    reconstruct_chain_distribution,
    reconstruct_tree_distribution,
)
from repro.cutting.variants import tree_variant_tuples, upstream_setting_tuples
from repro.exceptions import CutError
from repro.harness.scaling import chain_cut_circuit, tree_cut_circuit
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.sim import simulate_statevector
from repro.transpile.coupling import CouplingMap
from repro.utils.rng import as_generator, derive_rng

from tests.oracles import (
    build_tree_fragment_tensor_reference,
    reconstruct_tree_distribution_reference,
)

TOL = 1e-9

#: the two acceptance topologies: a Y (root with two child groups) and a
#: 5-node two-level tree whose interior node has two child groups
Y_PARENTS = [0, 0]
FIVE_PARENTS = [0, 0, 1, 1]

_slow = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_tree(parents, cuts_per_group, seed, **kwargs):
    qc, specs = tree_cut_circuit(
        parents, cuts_per_group, fresh_per_fragment=2, depth=2,
        seed=seed, **kwargs,
    )
    return qc, partition_tree(qc, specs)


def make_noisy_device(num_qubits: int = 6) -> FakeHardwareBackend:
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return FakeHardwareBackend(
        CouplingMap.linear(num_qubits), nm, name="tree_test_6q"
    )


def noisy_tree_data(tree, dev, shots, seed, variants=None):
    """Tree data through the cached noisy fast path + cache pool."""
    pool = dev.make_tree_cache_pool(tree)
    return run_tree_fragments(
        tree, dev, shots=shots, variants=variants, seed=seed, pool=pool
    )


def neglected_bases(tree):
    """A mixed neglect pattern: first group Y-golden, last group X+Z-golden."""
    golden = [None] * tree.num_groups
    golden[0] = {0: "Y"}
    golden[-1] = {tree.group_sizes[-1] - 1: ("X", "Z")}
    return [
        reduced_bases(k, gm) if gm else [("I", "X", "Y", "Z")] * k
        for k, gm in zip(tree.group_sizes, golden)
    ]


def variants_for_bases(tree, bases):
    """Per-fragment (inits, setting) lists covering the given group pools."""
    from repro.cutting.variants import downstream_init_tuples

    out = []
    for frag in tree.fragments:
        inits = (
            downstream_init_tuples(frag.num_prep, bases[frag.in_group])
            if frag.num_prep
            else [()]
        )
        settings = (
            upstream_setting_tuples(
                frag.num_meas,
                [
                    tuple(m for m in pool if m != "I")
                    for h in frag.meas_groups
                    for pool in bases[h]
                ],
            )
            if frag.num_meas
            else [()]
        )
        out.append([(a, s) for a in inits for s in settings])
    return out


# ---------------------------------------------------------------------------
# topology: partition_tree builds trees, rejects non-trees
# ---------------------------------------------------------------------------


class TestPartitionTree:
    def test_y_topology_shape(self):
        _, tree = make_tree(Y_PARENTS, 1, 301)
        assert tree.num_fragments == 3
        assert not tree.is_chain
        root = tree.fragments[0]
        assert root.in_group is None and len(root.meas_groups) == 2
        assert sorted(tree.children(0)) == [1, 2]
        for i in (1, 2):
            assert tree.fragments[i].parent == 0
            assert tree.fragments[i].num_meas == 0

    def test_five_node_two_level_shape(self):
        """Acceptance topology: 5 nodes, one interior node with 2 child
        groups."""
        _, tree = make_tree(FIVE_PARENTS, 1, 302)
        assert tree.num_fragments == 5
        assert not tree.is_chain
        branching = [
            f.index for f in tree.fragments if len(f.meas_groups) == 2
        ]
        assert len(branching) == 2  # the root and the two-child interior
        interior = [i for i in branching if tree.fragments[i].in_group is not None]
        assert len(interior) == 1
        frag = tree.fragments[interior[0]]
        assert frag.num_prep == 1 and frag.num_meas == 2
        # flat layout is the group-ordered concatenation
        assert frag.cut_local == [
            w for h in frag.meas_groups for w in frag.cut_local_by_group[h]
        ]

    def test_multi_cut_groups(self):
        _, tree = make_tree(Y_PARENTS, [2, 1], 303)
        assert tree.group_sizes == [2, 1]
        src0 = tree.fragments[tree.group_src[0]]
        assert len(src0.cut_local_by_group[0]) == 2

    def test_group_offset(self):
        _, tree = make_tree(FIVE_PARENTS, [1, 2, 1, 1], 304)
        for i, frag in enumerate(tree.fragments):
            off = 0
            for h in frag.meas_groups:
                assert frag.group_offset(h) == off
                off += len(frag.cut_local_by_group[h])
        with pytest.raises(CutError):
            tree.fragments[0].group_offset(99)

    def test_chain_specs_produce_chain_shaped_tree(self):
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=305
        )
        tree = partition_tree(qc, specs)
        assert tree.is_chain
        assert tree.group_src == [0, 1] and tree.group_dst == [1, 2]

    def test_partition_chain_rejects_tree_pointing_to_partition_tree(self):
        """Satellite: the chain entry point no longer dead-ends on branched
        specs — the error names partition_tree."""
        qc, specs = tree_cut_circuit(
            Y_PARENTS, 1, fresh_per_fragment=2, depth=2, seed=306
        )
        with pytest.raises(CutError, match="partition_tree"):
            partition_chain(qc, specs)
        # the same specs are fully supported by the tree engine
        assert partition_tree(qc, specs).num_fragments == 3

    def test_spec_spanning_two_fragments_rejected(self):
        qc, specs = tree_cut_circuit(
            [0, 1], 1, fresh_per_fragment=2, depth=2, seed=307
        )
        from repro.cutting.cut import CutPoint, CutSpec

        # one point from each of the two specs: after the first split the
        # second spec's points no longer live in one piece
        bad = CutSpec((specs[0].cuts[0], specs[1].cuts[0]))
        with pytest.raises(CutError, match="single fragment"):
            partition_tree(qc, [specs[0], bad])

    def test_needs_at_least_one_spec(self):
        qc, _ = make_tree(Y_PARENTS, 1, 308)
        with pytest.raises(CutError):
            partition_tree(qc, [])

    def test_dag_specs_route_to_dag_engine(self):
        """Two groups preparing into one fragment now builds a joint-prep
        DAG node instead of raising "a DAG, not a tree"."""
        from repro.circuits.circuit import Circuit
        from repro.cutting.cut import CutPoint, CutSpec

        qc = Circuit(2, name="dag")
        qc.rx(0.3, 0)          # 0
        qc.ry(0.2, 1)          # 1
        qc.cx(1, 0)            # 2: joint block fed by both cuts
        specs = [
            CutSpec((CutPoint(0, 0),)),
            CutSpec((CutPoint(1, 1),)),
        ]
        tree = partition_tree(qc, specs)
        assert not tree.is_tree and not tree.is_chain
        sink = tree.fragments[-1]
        assert sink.in_groups == [0, 1] and sink.in_group is None
        assert sink.num_prep == 2 and sink.num_parents == 2
        # flat prep layout is the group-ordered concatenation
        assert sink.prep_local == [
            w for h in sink.in_groups for w in sink.prep_local_by_group[h]
        ]
        assert sink.prep_offset(0) == 0 and sink.prep_offset(1) == 1
        with pytest.raises(CutError):
            sink.prep_offset(99)
        assert tree.group_dst == [2, 2]
        assert tree.parents(2) == [0, 1]

    def test_cyclic_construction_rejected(self):
        """Genuinely cyclic structures still fail loudly (src ≥ dst)."""
        import copy

        from repro.circuits.circuit import Circuit
        from repro.cutting.cut import CutPoint, CutSpec
        from repro.cutting.tree import FragmentTree

        qc = Circuit(2, name="dag")
        qc.rx(0.3, 0)          # 0
        qc.ry(0.2, 1)          # 1
        qc.cx(1, 0)            # 2
        tree = partition_tree(
            qc, [CutSpec((CutPoint(0, 0),)), CutSpec((CutPoint(1, 1),))]
        )
        frags = copy.deepcopy(tree.fragments)
        # re-home group 1 so its source and destination coincide on
        # fragment 1 — a self-loop, the minimal cycle
        frags[1].in_group = 1
        frags[1].prep_local = [0]
        frags[2].in_group = 0
        frags[2].in_groups = [0]
        frags[2].prep_local = [frags[2].prep_local[0]]
        frags[2].prep_local_by_group = {0: list(frags[2].prep_local)}
        with pytest.raises(CutError, match="cyclic|must precede"):
            FragmentTree(
                fragments=frags, group_sizes=list(tree.group_sizes)
            )

    def test_splitting_a_groups_measured_wires_rejected(self):
        from repro.circuits.circuit import Circuit
        from repro.cutting.cut import CutPoint, CutSpec

        qc = Circuit(5, name="split_meas")
        qc.h(2)                # 0
        qc.cx(2, 0)            # 1
        qc.cx(2, 1)            # 2
        qc.cx(0, 3)            # 3
        qc.cx(1, 4)            # 4
        specs = [
            CutSpec((CutPoint(0, 1), CutPoint(1, 2))),
            # re-cutting the source fragment between the two measured
            # wires strands them in different fragments
            CutSpec((CutPoint(2, 1),)),
        ]
        with pytest.raises(CutError, match="splits the measured wires"):
            partition_tree(qc, specs)

    def test_splitting_a_groups_preparation_wires_rejected(self):
        from repro.circuits.circuit import Circuit
        from repro.cutting.cut import CutPoint, CutSpec

        qc = Circuit(3, name="split_prep")
        qc.rx(0.3, 0)          # 0
        qc.ry(0.4, 1)          # 1
        qc.rz(0.5, 0)          # 2: prep wire 0 stays up at the next cut
        qc.h(2)                # 3
        qc.cx(2, 1)            # 4: prep wire 1 dragged downstream
        specs = [
            CutSpec((CutPoint(0, 0), CutPoint(1, 1))),
            CutSpec((CutPoint(2, 3),)),
        ]
        with pytest.raises(CutError, match="splits the preparation wires"):
            partition_tree(qc, specs)

    def test_direct_construction_validation(self):
        from repro.cutting.tree import FragmentTree

        _, tree = make_tree(Y_PARENTS, 1, 309)
        with pytest.raises(CutError, match="at least two"):
            FragmentTree(fragments=tree.fragments[:1], group_sizes=[])
        with pytest.raises(CutError, match="one cut group"):
            FragmentTree(
                fragments=list(tree.fragments), group_sizes=[1]
            )

    def test_link_rejects_malformed_structures(self):
        import copy

        from repro.cutting.tree import FragmentTree

        def rebuild(mutate, match):
            _, tree = make_tree(Y_PARENTS, 1, 310)
            frags = copy.deepcopy(tree.fragments)
            mutate(frags)
            with pytest.raises(CutError, match=match):
                FragmentTree(
                    fragments=frags, group_sizes=list(tree.group_sizes)
                )

        def root_enters(frags):
            frags[0].in_group = 0

        rebuild(root_enters, "root fragment")

        def no_entering(frags):
            # a non-root source is legal in a DAG, but it strands the
            # group that used to enter this fragment
            frags[1].in_group = None
            frags[1].in_groups = []
            frags[1].prep_local = []
            frags[1].prep_local_by_group = {}

        rebuild(no_entering, "not attached")

        def duplicate_dst(frags):
            frags[1].in_group = frags[2].in_group

        rebuild(duplicate_dst, "enters two fragments|not attached")

        def group_out_of_range(frags):
            frags[1].in_group = 99

        rebuild(group_out_of_range, "out of range")

        def wrong_prep_count(frags):
            frags[1].prep_local = frags[1].prep_local + [0]

        rebuild(wrong_prep_count, "preparation wires")

        def flat_mismatch(frags):
            frags[0].cut_local = list(reversed(frags[0].cut_local))

        rebuild(flat_mismatch, "group-ordered concatenation")


# ---------------------------------------------------------------------------
# tree contraction vs brute-force reference
# ---------------------------------------------------------------------------


class TestTreeMatchesBruteForce:
    @pytest.mark.parametrize(
        "parents,cuts,seed",
        [
            (Y_PARENTS, 1, 11),
            (Y_PARENTS, [2, 1], 12),
            (FIVE_PARENTS, 1, 13),
            ([0, 1, 1], [1, 2, 1], 14),
        ],
    )
    def test_ideal_full_pools(self, parents, cuts, seed):
        _, tree = make_tree(parents, cuts, seed)
        data = exact_tree_data(tree)
        fast = reconstruct_tree_distribution(data, postprocess="raw")
        ref = reconstruct_tree_distribution_reference(data)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    @pytest.mark.parametrize(
        "parents,cuts,seed", [(Y_PARENTS, 2, 21), (FIVE_PARENTS, 1, 22)]
    )
    def test_ideal_neglected_pools(self, parents, cuts, seed):
        _, tree = make_tree(parents, cuts, seed)
        bases = neglected_bases(tree)
        data = exact_tree_data(tree, variants=variants_for_bases(tree, bases))
        fast = reconstruct_tree_distribution(data, bases=bases, postprocess="raw")
        ref = reconstruct_tree_distribution_reference(data, bases=bases)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    @pytest.mark.parametrize(
        "parents,seed", [(Y_PARENTS, 31), (FIVE_PARENTS, 32)]
    )
    def test_noisy_full_pools(self, parents, seed):
        _, tree = make_tree(parents, 1, seed)
        dev = make_noisy_device()
        data = noisy_tree_data(tree, dev, shots=300, seed=seed)
        fast = reconstruct_tree_distribution(data, postprocess="raw")
        ref = reconstruct_tree_distribution_reference(data)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    def test_noisy_neglected_pools(self):
        _, tree = make_tree(Y_PARENTS, 1, 33)
        bases = neglected_bases(tree)
        dev = make_noisy_device()
        data = noisy_tree_data(
            tree, dev, shots=200, seed=5,
            variants=variants_for_bases(tree, bases),
        )
        fast = reconstruct_tree_distribution(data, bases=bases, postprocess="raw")
        ref = reconstruct_tree_distribution_reference(data, bases=bases)
        np.testing.assert_allclose(fast, ref, atol=TOL)

    def test_per_node_tensors_match_reference(self):
        _, tree = make_tree(FIVE_PARENTS, 1, 41)
        data = exact_tree_data(tree)
        for i in range(tree.num_fragments):
            fast, rp_f, rg_f = build_tree_fragment_tensor(data, i)
            ref, rp_r, rg_r = build_tree_fragment_tensor_reference(data, i)
            assert rp_f == rp_r and rg_f == rg_r
            assert fast.ndim == 2 + tree.fragments[i].num_children
            np.testing.assert_allclose(fast, ref, atol=TOL)


# ---------------------------------------------------------------------------
# exactness against the uncut circuit
# ---------------------------------------------------------------------------


class TestTreeExactness:
    @pytest.mark.parametrize(
        "parents,cuts,seed",
        [
            (Y_PARENTS, 1, 51),
            (Y_PARENTS, [1, 2], 52),
            (FIVE_PARENTS, 1, 53),
            ([0, 0, 0], 1, 54),  # a 3-pronged star
        ],
    )
    def test_exact_data_reconstructs_truth(self, parents, cuts, seed):
        qc, tree = make_tree(parents, cuts, seed)
        data = exact_tree_data(tree)
        p = reconstruct_tree_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=TOL)

    def test_golden_neglect_stays_exact_on_real_tree(self):
        """Y-golden tree circuit: neglecting Y per group costs no accuracy."""
        qc, specs = tree_cut_circuit(
            FIVE_PARENTS, 1, fresh_per_fragment=2, depth=2, seed=63,
            real_blocks=True,
        )
        res = cut_and_run_tree(
            qc,
            IdealBackend(exact=True),
            specs,
            shots=1_000_000,
            golden="known",
            golden_maps=[{0: "Y"}] * 4,
            seed=3,
            postprocess="raw",
        )
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(res.probabilities, truth, atol=1e-5)
        full = cut_and_run_tree(
            qc, IdealBackend(exact=True), specs, shots=1_000_000, seed=3
        )
        assert res.total_executions < full.total_executions

    @_slow
    @given(
        seed=st.integers(0, 10_000),
        parents=st.sampled_from(
            [(0, 0), (0, 0, 1), (0, 0, 1, 1), (0, 1, 0), (0, 0, 0)]
        ),
    )
    def test_random_tree_reconstructs_uncut_distribution(self, seed, parents):
        qc, tree = make_tree(list(parents), 1, seed)
        data = exact_tree_data(tree)
        p = reconstruct_tree_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-8)


# ---------------------------------------------------------------------------
# chain degeneracy: linear specs through the tree path == chain path
# ---------------------------------------------------------------------------


class TestChainDegeneracy:
    @_slow
    @given(seed=st.integers(0, 10_000), num_fragments=st.integers(3, 4))
    def test_ideal_linear_tree_matches_chain(self, seed, num_fragments):
        """Property (satellite): a linear spec set through partition_tree +
        tree contraction is ≤ 1e-9 from the chain path on exact data."""
        qc, specs = chain_cut_circuit(
            num_fragments, 1, fresh_per_fragment=2, depth=2, seed=seed
        )
        chain = partition_chain(qc, specs)
        tree = partition_tree(qc, specs)
        assert tree.is_chain
        p_chain = reconstruct_chain_distribution(
            exact_chain_data(chain), postprocess="raw"
        )
        p_tree = reconstruct_tree_distribution(
            exact_tree_data(tree), postprocess="raw"
        )
        np.testing.assert_allclose(p_tree, p_chain, atol=TOL)

    def test_noisy_linear_tree_bit_identical_to_chain(self):
        """Acceptance: the noisy chain fast path and the tree fast path on
        the same linear specs produce bit-identical records and counts."""
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=71
        )
        chain = partition_chain(qc, specs)
        tree = partition_tree(qc, specs)
        chain_data = noisy_tree_data(chain, make_noisy_device(), 800, seed=9)
        tree_data = noisy_tree_data(tree, make_noisy_device(), 800, seed=9)
        for i in range(chain.num_fragments):
            assert set(chain_data.records[i]) == set(tree_data.records[i])
            for k in chain_data.records[i]:
                np.testing.assert_array_equal(
                    chain_data.records[i][k], tree_data.records[i][k]
                )
        assert chain_data.modeled_seconds == pytest.approx(
            tree_data.modeled_seconds, rel=1e-12
        )

    def test_cut_and_run_chain_bit_identical_to_tree_engine(self):
        """Acceptance: chain entry points keep their signatures and produce
        bit-identical results via the tree engine."""
        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=72
        )
        res_chain = cut_and_run_chain(
            qc, IdealBackend(), specs, shots=400, seed=5
        )
        res_tree = cut_and_run_tree(
            qc, IdealBackend(), specs, shots=400, seed=5
        )
        np.testing.assert_array_equal(
            res_chain.probabilities, res_tree.probabilities
        )
        assert res_chain.total_executions == res_tree.total_executions
        assert res_chain.chain.is_chain and res_tree.tree.is_chain

    def test_chain_entry_points_keep_their_result_type(self):
        """Chain entry points still hand back ChainFragmentData (the
        historical type), even though the work runs on the tree engine."""
        from repro.cutting.execution import ChainFragmentData
        from repro.parallel import run_chain_fragments_parallel

        qc, specs = chain_cut_circuit(
            3, 1, fresh_per_fragment=2, depth=2, seed=73
        )
        chain = partition_chain(qc, specs)
        assert isinstance(exact_chain_data(chain), ChainFragmentData)
        assert isinstance(
            run_chain_fragments(chain, IdealBackend(), shots=50, seed=0),
            ChainFragmentData,
        )
        assert isinstance(
            run_chain_fragments_parallel(
                chain, IdealBackend, shots=50, seed=0, mode="serial"
            ),
            ChainFragmentData,
        )
        res = cut_and_run_chain(qc, IdealBackend(), specs, shots=50, seed=0)
        assert isinstance(res.data, ChainFragmentData)


# ---------------------------------------------------------------------------
# noisy fast path: bit-identical to per-variant execution; pool call counts
# ---------------------------------------------------------------------------


class TestNoisyTreeFastPath:
    def test_counts_clock_and_metadata_identical_to_execution(self):
        """Acceptance: every node's cached variants equal submitting the
        logical tree_variant circuits through ``run`` — bit for bit."""
        _, tree = make_tree(FIVE_PARENTS, 1, 81)
        fast_dev = make_noisy_device()
        ref_dev = make_noisy_device()
        for i in range(tree.num_fragments):
            combos = tree_variant_tuples(tree, i)
            fast = fast_dev.run_tree_variants(
                tree, i, combos, shots=1500, seed=17 + i
            )
            ref = Backend.run_tree_variants(
                ref_dev, tree, i, combos, shots=1500, seed=17 + i
            )
            assert len(fast) == len(ref)
            for f, r in zip(fast, ref):
                assert f.counts == r.counts
                assert f.seconds == pytest.approx(r.seconds, rel=1e-12)
                assert (
                    f.metadata["transpiled_ops"] == r.metadata["transpiled_ops"]
                )
                assert f.metadata["layout"] == r.metadata["layout"]
        assert fast_dev.clock.now == pytest.approx(ref_dev.clock.now, rel=1e-12)

    def test_run_tree_fragments_matches_per_variant_records(self):
        """run_tree_fragments through the pool == per-variant submission."""
        _, tree = make_tree(Y_PARENTS, 1, 82)
        dev = make_noisy_device()
        data = noisy_tree_data(tree, dev, shots=1200, seed=9)
        ref_dev = make_noisy_device()
        rng = as_generator(9)
        for i in range(tree.num_fragments):
            frag = tree.fragments[i]
            combos = tree_variant_tuples(tree, i)
            results = Backend.run_tree_variants(
                ref_dev, tree, i, combos, shots=1200,
                seed=derive_rng(rng, 0x60 + i),
            )
            for combo, res in zip(combos, results):
                np.testing.assert_array_equal(
                    data.records[i][combo],
                    _split_joint_probs(
                        res.probabilities(), frag.out_local, frag.cut_local
                    ),
                )

    @pytest.mark.parametrize("parents", [Y_PARENTS, FIVE_PARENTS])
    def test_pool_transpiles_once_per_node(self, parents):
        """Acceptance: the N-body-transpile law holds on trees — one body
        transpile/evolution bank per node, however many variants run."""
        _, tree = make_tree(parents, 1, 83)
        dev = make_noisy_device()
        pool = dev.make_tree_cache_pool(tree)
        data = run_tree_fragments(tree, dev, shots=100, seed=1, pool=pool)
        assert data.num_variants == sum(
            len(tree_variant_tuples(tree, i))
            for i in range(tree.num_fragments)
        )
        for i, cache in enumerate(pool):
            frag = tree.fragments[i]
            assert cache.stats["transpiles"] == 1
            assert cache.stats["body_evolutions"] == 4**frag.num_prep
            expected_rot = 3**frag.num_meas if frag.num_meas else 0
            assert cache.stats["rotation_evolutions"] == expected_rot
        # re-serving the same variants costs nothing new
        run_tree_fragments(tree, dev, shots=100, seed=2, pool=pool)
        for cache in pool:
            assert cache.stats["transpiles"] == 1

    def test_exact_tree_data_rejects_noisy_pool(self):
        _, tree = make_tree(Y_PARENTS, 1, 84)
        noisy_pool = make_noisy_device().make_tree_cache_pool(tree)
        with pytest.raises(CutError):
            exact_tree_data(tree, pool=noisy_pool)

    def test_exact_tree_data_rejects_foreign_tree_pool(self):
        _, tree_a = make_tree(Y_PARENTS, 1, 85)
        _, tree_b = make_tree(Y_PARENTS, 1, 86)
        pool_a = IdealBackend().make_tree_cache_pool(tree_a)
        with pytest.raises(CutError):
            exact_tree_data(tree_b, pool=pool_a)


# ---------------------------------------------------------------------------
# batched stacked-rotation warm path (satellite)
# ---------------------------------------------------------------------------


class TestBatchedRotations:
    @pytest.mark.parametrize("parents,cuts", [(Y_PARENTS, 1), ([0], 3)])
    def test_batched_equals_per_setting(self, parents, cuts):
        qc, specs = tree_cut_circuit(
            parents, cuts, fresh_per_fragment=2, depth=2, seed=91
        )
        tree = partition_tree(qc, specs)
        for frag in tree.fragments:
            if not frag.num_meas:
                continue
            settings = upstream_setting_tuples(frag.num_meas)
            lazy = TreeFragmentSimCache(frag)
            banks_lazy = {
                s: np.array(lazy._rotated_columns(s)) for s in settings
            }
            batched = TreeFragmentSimCache(frag)
            batched.warm_rotations(settings)
            for s in settings:
                np.testing.assert_allclose(
                    batched._rotated[s], banks_lazy[s], atol=1e-12
                )

    def test_partial_pools_and_memoisation(self):
        _, tree = make_tree(Y_PARENTS, 1, 92)
        frag = tree.fragments[0]
        cache = TreeFragmentSimCache(frag)
        subset = [("X", "Z"), ("Y", "Z"), ("X", "Y")]
        cache.warm_rotations(subset)
        assert set(cache._rotated) >= set(subset)
        before = {s: cache._rotated[s] for s in subset}
        cache.warm_rotations(subset)  # second call is a no-op
        for s in subset:
            assert cache._rotated[s] is before[s]

    def test_invalid_setting_rejected(self):
        _, tree = make_tree(Y_PARENTS, 1, 93)
        cache = TreeFragmentSimCache(tree.fragments[0])
        with pytest.raises(CutError):
            cache.warm_rotations([("Q", "Z"), ("X", "Z")])
        with pytest.raises(CutError):
            cache.warm_rotations([("X",)])

    def test_warm_combos_uses_batched_path_and_serves_sampling(self):
        qc, tree = make_tree(Y_PARENTS, 1, 94)
        combos = [
            tree_variant_tuples(tree, i) for i in range(tree.num_fragments)
        ]
        dev = IdealBackend()
        pool = dev.make_tree_cache_pool(tree)
        pool.warm(combos)
        data = run_tree_fragments(
            tree, IdealBackend(exact=True), shots=2_000_000, seed=0, pool=pool
        )
        p = reconstruct_tree_distribution(data, postprocess="raw")
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-5)


# ---------------------------------------------------------------------------
# tree variance model
# ---------------------------------------------------------------------------


class TestTreeVariance:
    def test_exact_data_has_zero_variance(self):
        from repro.cutting.variance import tree_reconstruction_variance

        _, tree = make_tree(FIVE_PARENTS, 1, 95)
        var = tree_reconstruction_variance(exact_tree_data(tree))
        assert var.shape == (1 << len(tree.output_order()),)
        np.testing.assert_array_equal(var, 0.0)

    def test_prediction_tracks_empirical_variance(self):
        from repro.cutting.variance import (
            tree_predicted_stddev_tv,
            tree_reconstruction_variance,
        )

        _, tree = make_tree(Y_PARENTS, 1, 96)
        dev = IdealBackend()
        shots = 400
        reps = []
        predicted = None
        for r in range(30):
            data = run_tree_fragments(
                tree, dev, shots=shots, seed=1000 + r,
                pool=dev.make_tree_cache_pool(tree),
            )
            reps.append(
                reconstruct_tree_distribution(data, postprocess="raw")
            )
            if predicted is None:
                predicted = tree_reconstruction_variance(data)
                assert tree_predicted_stddev_tv(data) > 0
        empirical = np.var(np.stack(reps), axis=0)
        ratio = predicted.sum() / empirical.sum()
        assert 0.3 < ratio < 3.0

    @pytest.mark.parametrize(
        "parents,seed",
        [(Y_PARENTS, 97), (FIVE_PARENTS, 98), ([0, 0, 1, 1, 2, 2], 99)],
    )
    def test_single_permutation_matches_per_term_formula(self, parents, seed):
        """Summing the per-fragment terms in contraction order and
        permuting once is bit-identical to permuting every term."""
        from repro.cutting.variance import tree_reconstruction_variance
        from tests.oracles import tree_reconstruction_variance_reference

        _, tree = make_tree(parents, 1, seed)
        dev = IdealBackend()
        data = run_tree_fragments(
            tree, dev, shots=300, seed=seed,
            pool=dev.make_tree_cache_pool(tree),
        )
        var = tree_reconstruction_variance(data)
        assert var.sum() > 0
        assert np.array_equal(var, tree_reconstruction_variance_reference(data))
        bases = neglected_bases(tree)
        reduced = run_tree_fragments(
            tree, dev, shots=300, seed=seed,
            variants=variants_for_bases(tree, bases),
        )
        assert np.array_equal(
            tree_reconstruction_variance(reduced, bases),
            tree_reconstruction_variance_reference(reduced, bases),
        )
