"""Tests for the reconstruction kernel — the package's correctness core.

The key integration invariant: for *exact* fragment data, the reconstructed
distribution equals the uncut circuit's distribution to machine precision,
for any number of cuts and any circuit family.  The single cut is the
2-node fragment tree.
"""

import numpy as np
import pytest

from repro.cutting import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import (
    build_tree_fragment_tensor,
    project_to_simplex,
    reconstruct_tree_distribution,
)
from repro.backends import IdealBackend
from repro.exceptions import ReconstructionError
from repro.metrics import total_variation
from repro.observables import DiagonalObservable, all_bitstring_projectors
from repro.sim import simulate_statevector

from tests.helpers import exact_pair_probs, pair_tree, two_block_circuit


class TestExactReconstruction:
    @pytest.mark.parametrize("seed", range(6))
    def test_single_cut_matches_truth(self, seed):
        qc, spec = two_block_circuit(4, [0, 1], [1, 2, 3], seed=seed)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=1e-9)

    @pytest.mark.parametrize("seed", range(4))
    def test_two_cuts_match_truth(self, seed):
        qc, spec = two_block_circuit(5, [0, 1, 2], [1, 2, 3, 4], seed=seed + 10)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=1e-9)

    def test_three_cuts_match_truth(self):
        qc, spec = two_block_circuit(6, [0, 1, 2, 3], [1, 2, 3, 4, 5], seed=3)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=1e-9)

    @pytest.mark.parametrize("seed", range(3))
    def test_unbalanced_fragments(self, seed):
        qc, spec = two_block_circuit(5, [0, 1, 2, 3], [3, 4], seed=seed + 30)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=1e-9)

    def test_real_upstream_family(self):
        qc, spec = two_block_circuit(
            4, [0, 1], [1, 2, 3], seed=5, real_upstream=True
        )
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=1e-9)


class TestExpectationReconstruction:
    @pytest.mark.parametrize("seed", range(3))
    def test_parity(self, seed):
        qc, spec = two_block_circuit(4, [0, 1], [1, 2, 3], seed=seed + 50)
        obs = DiagonalObservable.parity(4)
        e = obs.expectation(exact_pair_probs(qc, spec))
        truth = obs.expectation(simulate_statevector(qc).probabilities())
        assert np.isclose(e, truth, atol=1e-9)

    def test_projector_expectations_sum_to_one(self):
        qc, spec = two_block_circuit(3, [0, 1], [1, 2], seed=8)
        p = exact_pair_probs(qc, spec)
        total = sum(proj.expectation(p) for proj in all_bitstring_projectors(3))
        assert np.isclose(total, 1.0, atol=1e-9)

    def test_shape_validation(self, simple_cut_pair):
        from repro.core import cut_and_run, cut_and_run_tree

        qc, spec, _ = simple_cut_pair
        pair_run = cut_and_run(qc, IdealBackend(), cuts=spec, shots=500, seed=1)
        tree_run = cut_and_run_tree(qc, IdealBackend(), [spec], shots=500, seed=1)
        for run in (pair_run, tree_run):
            assert run.expectation(np.ones(8)) == pytest.approx(1.0)
            with pytest.raises(ReconstructionError):
                run.expectation(np.zeros(4))
            with pytest.raises(ReconstructionError):
                run.expectation(np.zeros((8, 1)))


class TestTensors:
    def test_measuring_identity_row_is_marginal(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        A, _, (rows,) = build_tree_fragment_tensor(data, 0)
        i_row = A[0, rows.index(("I",))]
        # I row = marginal over the cut outcome = reduced distribution
        z_joint = data.records[0][((), ("Z",))]
        np.testing.assert_allclose(i_row, z_joint.sum(axis=1), atol=1e-12)

    def test_measuring_rows_bounded_by_one(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        A = build_tree_fragment_tensor(exact_tree_data(pair_tree(qc, spec)), 0)[0]
        assert np.all(np.abs(A) <= 1.0 + 1e-9)

    def test_preparing_identity_row_sums_inits(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        B, rows, _ = build_tree_fragment_tensor(data, 1)
        i_row = B[rows.index(("I",)), :]
        expected = (
            data.records[1][(("Z+",), ())] + data.records[1][(("Z-",), ())]
        ).ravel()
        np.testing.assert_allclose(i_row, expected, atol=1e-12)

    def test_missing_setting_raises(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        data = exact_tree_data(tree, variants=[[((), ("X",)), ((), ("Z",))], None])
        with pytest.raises(ReconstructionError):
            build_tree_fragment_tensor(data, 0)  # Y row unavailable

    def test_missing_init_raises(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        data = exact_tree_data(
            tree, variants=[None, [(("Z+",), ()), (("Z-",), ())]]
        )
        with pytest.raises(ReconstructionError):
            build_tree_fragment_tensor(data, 1)

    def test_invalid_basis_pool(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        with pytest.raises(ReconstructionError):
            build_tree_fragment_tensor(data, 0, bases=[[("Q",)]])
        with pytest.raises(ReconstructionError):
            build_tree_fragment_tensor(data, 0, bases=[[("I",), ("X",)]])  # wrong K


class TestPostprocessing:
    @staticmethod
    def _sampled(simple_cut_pair, shots, seed):
        qc, spec, _ = simple_cut_pair
        return run_tree_fragments(
            pair_tree(qc, spec), IdealBackend(), shots=shots, seed=seed
        )

    def test_clip_normalises(self, simple_cut_pair):
        data = self._sampled(simple_cut_pair, 200, 0)
        p = reconstruct_tree_distribution(data, postprocess="clip")
        assert np.all(p >= 0) and np.isclose(p.sum(), 1.0)

    def test_simplex_is_distribution(self, simple_cut_pair):
        data = self._sampled(simple_cut_pair, 200, 1)
        p = reconstruct_tree_distribution(data, postprocess="simplex")
        assert np.all(p >= -1e-12) and np.isclose(p.sum(), 1.0)

    def test_raw_can_be_negative_but_sums_to_one(self, simple_cut_pair):
        data = self._sampled(simple_cut_pair, 100, 2)
        p = reconstruct_tree_distribution(data, postprocess="raw")
        assert np.isclose(p.sum(), 1.0, atol=1e-9)

    def test_unknown_mode(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        with pytest.raises(ReconstructionError):
            reconstruct_tree_distribution(data, postprocess="magic")


class TestInPlaceTail:
    """The dense tail scales and postprocesses in place, so it may only
    ever write into arrays the reconstruction allocated itself."""

    def test_single_fragment_tree_is_refused(self):
        """The one network whose contraction would hand back a node tensor
        unmerged (a single node) cannot be built."""
        from repro.circuits import random_circuit
        from repro.cutting.tree import FragmentTree, TreeFragment
        from repro.exceptions import CutError

        qc = random_circuit(3, 2, seed=1)
        frag = TreeFragment(
            circuit=qc, index=0, prep_local=[], cut_local=[],
            out_local=[0, 1, 2], out_original=[0, 1, 2],
        )
        with pytest.raises(CutError, match="at least two fragments"):
            FragmentTree(fragments=[frag], group_sizes=[])

    @pytest.mark.parametrize(
        "blocks,seed",
        [
            ((4, [0, 1], [1, 2, 3]), 2),
            # every upstream wire cut: the upstream node has no outputs
            ((3, [0], [0, 1, 2]), 4),
        ],
    )
    @pytest.mark.parametrize("mode", ["clip", "raw", "simplex"])
    def test_identity_order_leaves_inputs_untouched(self, blocks, seed, mode):
        from repro.cutting.reconstruction import (
            _contract_network,
            _resolve_plan,
        )

        qc, spec = two_block_circuit(*blocks, seed=seed)
        data = run_tree_fragments(
            pair_tree(qc, spec), IdealBackend(), shots=200, seed=3
        )
        tree = data.tree
        tensors = [
            build_tree_fragment_tensor(data, i)[0]
            for i in range(tree.num_fragments)
        ]
        from tests.oracles import contract_network_unordered

        plan = _resolve_plan(tree, None, None)
        v = _contract_network(tensors, tree, plan, None)
        # already in qubit order: the closing GEMM writes the result itself
        _, order = contract_network_unordered(tensors, tree, plan)
        assert order == list(range(len(order)))
        assert not any(np.shares_memory(v, t) for t in tensors)
        records = [
            {key: rec.copy() for key, rec in recs.items()}
            for recs in data.records
        ]

        first = reconstruct_tree_distribution(data, postprocess=mode)
        second = reconstruct_tree_distribution(data, postprocess=mode)
        np.testing.assert_array_equal(first, second)
        assert not np.shares_memory(first, second)
        if mode == "raw":
            assert first.min() < 0  # so "clip" really writes into its buffer
        for recs, kept in zip(data.records, records):
            assert recs.keys() == kept.keys()
            for key, rec in recs.items():
                np.testing.assert_array_equal(rec, kept[key])
                assert not np.shares_memory(rec, first)
        for i, t in enumerate(tensors):
            np.testing.assert_array_equal(
                build_tree_fragment_tensor(data, i)[0], t
            )


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v, atol=1e-12)

    def test_clips_negative(self):
        out = project_to_simplex(np.array([1.2, -0.2]))
        assert np.isclose(out.sum(), 1.0) and np.all(out >= 0)

    def test_is_closest_point(self, rng):
        """Projection must beat any random feasible point in L2 distance."""
        v = rng.normal(size=6)
        p = project_to_simplex(v)
        assert np.isclose(p.sum(), 1.0) and np.all(p >= -1e-12)
        for _ in range(50):
            q = rng.random(6)
            q /= q.sum()
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9

    def test_extreme_vector(self):
        out = project_to_simplex(np.array([-5.0, -7.0, -6.0]))
        assert np.isclose(out.sum(), 1.0)
        assert out[0] == max(out)


class TestFiniteShotConvergence:
    def test_tv_shrinks_with_shots(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        truth = simulate_statevector(qc).probabilities()
        tvs = []
        for shots in (100, 10_000):
            data = run_tree_fragments(tree, IdealBackend(), shots=shots, seed=42)
            tvs.append(total_variation(reconstruct_tree_distribution(data), truth))
        assert tvs[1] < tvs[0]

    def test_high_shot_accuracy(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        truth = simulate_statevector(qc).probabilities()
        data = run_tree_fragments(
            pair_tree(qc, spec), IdealBackend(), shots=100_000, seed=3
        )
        p = reconstruct_tree_distribution(data)
        assert total_variation(p, truth) < 0.01
