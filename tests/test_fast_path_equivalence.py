"""Equivalence of the cached/vectorised hot path against the reference path.

The cache (:mod:`repro.cutting.cache`) and the factorised reconstruction
kernels must be a pure performance change: every number the fast path
produces has to match a from-scratch simulation of each physical variant
circuit (the pre-cache semantics) to ≤1e-9.  These tests pin that down on
the paper's single cut — the 2-node fragment tree — across random
circuits, ``K ∈ {1, 2, 3}``, full and reduced/neglected basis pools, and
both execution entry points.
"""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.backends.base import Backend
from repro.core.neglect import tree_reduced_variants
from repro.circuits.circuit import Circuit
from repro.circuits.random import random_circuit
from repro.cutting.cut import CutPoint, CutSpec
from repro.cutting.execution import (
    _split_joint_probs,
    exact_tree_data,
    run_tree_fragments,
)
from repro.cutting.reconstruction import _signs_for, build_tree_fragment_tensor
from repro.cutting.variants import tree_variant, tree_variant_tuples
from repro.harness.scaling import multi_cut_golden_circuit
from repro.parallel import run_tree_fragments_parallel
from repro.sim import simulate_statevector

from tests.helpers import exact_pair_probs, pair_tree
from tests.oracles import build_tree_fragment_tensor_reference

TOL = 1e-9


def random_cut_circuit(num_cuts: int, seed: int):
    """A random (complex, non-golden) circuit with ``K`` valid cut points.

    Same shape as :func:`multi_cut_golden_circuit` but with a fully generic
    upstream block, so the cached path is exercised on states with
    nontrivial phases on every cut wire.
    """
    rng = np.random.default_rng(seed)
    n_up = 2 + num_cuts
    n = n_up + 2
    cut_wires = list(range(2, 2 + num_cuts))
    qc = Circuit(n, name=f"rand-cut[K={num_cuts}]")
    qc = qc.compose(random_circuit(n_up, 3, seed=rng), qubits=list(range(n_up)))
    for w in cut_wires:  # every cut wire needs an upstream anchor
        if not any(w in inst.qubits for inst in qc):
            qc.rx(float(rng.uniform(0, 6.28)), w)
    boundary = {
        w: max(i for i, inst in enumerate(qc) if w in inst.qubits)
        for w in cut_wires
    }
    down_qubits = cut_wires + list(range(n_up, n))
    for a, b in zip(down_qubits, down_qubits[1:]):
        qc.cx(a, b)
    qc = qc.compose(random_circuit(len(down_qubits), 3, seed=rng), qubits=down_qubits)
    spec = CutSpec(tuple(CutPoint(w, boundary[w]) for w in cut_wires))
    return qc, spec


def reference_exact_records(tree, variants):
    """Pre-cache semantics: simulate every physical variant circuit."""
    out = []
    for i, combos in enumerate(variants):
        frag = tree.fragments[i]
        out.append(
            {
                combo: _split_joint_probs(
                    simulate_statevector(
                        tree_variant(tree, i, *combo)
                    ).probabilities(),
                    frag.out_local,
                    frag.cut_local,
                )
                for combo in combos
            }
        )
    return out


def tree_for(K, seed, golden_shape):
    if golden_shape:
        qc, spec = multi_cut_golden_circuit(
            K, extra_up=2, extra_down=2, depth=2, seed=seed
        )
    else:
        qc, spec = random_cut_circuit(K, seed)
    return qc, spec, pair_tree(qc, spec)


def _full_variants(tree):
    return [tree_variant_tuples(tree, i) for i in range(tree.num_fragments)]


def _assert_records_close(data, ref):
    for rec, ref_rec in zip(data.records, ref):
        assert set(rec) == set(ref_rec)
        for combo in ref_rec:
            np.testing.assert_allclose(rec[combo], ref_rec[combo], atol=TOL)


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("golden_shape", [False, True])
class TestCacheMatchesVariantSimulation:
    def test_exact_tree_data_full_sets(self, K, golden_shape):
        _, _, tree = tree_for(K, 100 + K, golden_shape)
        ref = reference_exact_records(tree, _full_variants(tree))
        _assert_records_close(exact_tree_data(tree), ref)

    def test_exact_tree_data_reduced_sets(self, K, golden_shape):
        _, _, tree = tree_for(K, 200 + K, golden_shape)
        golden = {0: "Y"} if K == 1 else {0: "Y", K - 1: ("X", "Z")}
        _, variants = tree_reduced_variants(tree, [golden])
        ref = reference_exact_records(tree, variants)
        _assert_records_close(exact_tree_data(tree, variants=variants), ref)

    def test_run_tree_variants_ideal_exact_backend(self, K, golden_shape):
        """The ideal backend's cached fast path == circuit execution."""
        _, _, tree = tree_for(K, 300 + K, golden_shape)
        for i, combos in enumerate(_full_variants(tree)):
            fast = IdealBackend(exact=True).run_tree_variants(
                tree, i, combos, shots=4096, seed=7
            )
            ref = Backend.run_tree_variants(
                IdealBackend(exact=True), tree, i, combos, shots=4096, seed=7
            )
            for f, r in zip(fast, ref):
                np.testing.assert_allclose(
                    f.probabilities(), r.probabilities(), atol=TOL
                )

    def test_reconstruction_end_to_end(self, K, golden_shape):
        qc, spec, _ = tree_for(K, 400 + K, golden_shape)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(exact_pair_probs(qc, spec), truth, atol=TOL)


@pytest.mark.parametrize("K", [1, 2, 3])
class TestVectorisedKernelsMatchReference:
    @pytest.fixture
    def data(self, K):
        return exact_tree_data(tree_for(K, 500 + K, False)[2])

    @staticmethod
    def _assert_nodes_match(data, bases=None):
        for i in range(data.tree.num_fragments):
            fast, rp_f, rg_f = build_tree_fragment_tensor(data, i, bases)
            ref, rp_r, rg_r = build_tree_fragment_tensor_reference(data, i, bases)
            assert rp_f == rp_r and rg_f == rg_r
            np.testing.assert_allclose(fast, ref, atol=TOL)

    def test_full_bases(self, K, data):
        self._assert_nodes_match(data)

    @pytest.mark.parametrize(
        "pool", [("I", "X", "Z"), ("I", "Y"), ("I", "X", "Y"), ("I",)]
    )
    def test_neglected_pools(self, K, data, pool):
        """Neglecting basis elements just slices the per-cut factors."""
        bases = [[pool] + [("I", "X", "Y", "Z")] * (K - 1)]
        _, _, (rows,) = build_tree_fragment_tensor(data, 0, bases)
        assert len(rows) == len(pool) * 4 ** (K - 1)
        self._assert_nodes_match(data, bases)

    def test_reduced_data_reduced_bases(self, K, data):
        _, _, tree = tree_for(K, 600 + K, True)
        bases, variants = tree_reduced_variants(
            tree, [{k: "Y" for k in range(K)}]
        )
        self._assert_nodes_match(exact_tree_data(tree, variants=variants), bases)


class TestSampledPaths:
    def test_sampled_run_tree_fragments_statistics(self):
        """The cached sampling path still concentrates on the exact data."""
        _, _, tree = tree_for(2, 700, False)
        exact = exact_tree_data(tree)
        data = run_tree_fragments(tree, IdealBackend(), shots=200_000, seed=11)
        for rec, ref in zip(data.records, exact.records):
            for key in ref:
                assert np.abs(ref[key] - rec[key]).max() < 0.01

    def test_parallel_thread_matches_serial(self):
        """Worker-local backends + shared cache keep results bit-identical."""
        _, _, tree = tree_for(2, 800, False)
        a = run_tree_fragments_parallel(
            tree, IdealBackend, shots=500, seed=3, max_workers=4, mode="thread"
        )
        b = run_tree_fragments_parallel(
            tree, IdealBackend, shots=500, seed=3, mode="serial"
        )
        for ra, rb in zip(a.records, b.records):
            assert set(ra) == set(rb)
            for k in ra:
                np.testing.assert_array_equal(ra[k], rb[k])

    def test_cache_is_shared_across_pipeline_stages(self):
        """One cache pool serves finder + execution."""
        _, _, tree = tree_for(2, 900, True)
        pool = IdealBackend().make_tree_cache_pool(tree)
        d1 = exact_tree_data(tree, pool=pool)
        body = pool[0]._columns
        assert body is not None
        d2 = run_tree_fragments(
            tree, IdealBackend(exact=True), shots=100, pool=pool
        )
        assert pool[0]._columns is body  # body simulated exactly once
        for k in d1.records[0]:
            assert d2.records[0][k].shape == d1.records[0][k].shape


class TestSignsFor:
    @pytest.mark.parametrize("K", [1, 2, 3, 5, 8])
    def test_popcount_parity_matches_loop(self, K):
        r = np.arange(1 << K)
        for mask in range(1 << K):
            naive = np.array(
                [1.0 - 2.0 * (bin(x & mask).count("1") & 1) for x in r]
            )
            np.testing.assert_array_equal(_signs_for(mask, K), naive)
