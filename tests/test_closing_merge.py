"""The closing merge writes the dense result in qubit order, block by block.

The last merge of a dense contraction never forms its ``(D_b, D_a)`` GEMM
product: it computes one cache-sized block of top output qubits at a
time, applies the ``1/2^K`` scale (``"raw"``) or the clip and its running
sum (``"clip"``) on the block, and gathers it straight into the one
``2^n`` output.  These tests pin it to the whole-vector oracle of
``tests/oracles.py`` — full GEMMs, then one permuting copy to qubit order,
then scale and postprocess as separate passes — on the label layouts the
block index has to handle, across block boundaries (``n = 15, 17``) and
in float32.  ``"raw"`` must match bit for bit, ``"clip"`` within 1 ulp.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import repro.cutting.reconstruction as rec
from repro.backends import IdealBackend
from repro.cutting.contraction import ContractionPlan
from repro.cutting.execution import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import (
    _DenseTail,
    _merge_clusters,
    _NetCluster,
    reconstruct_tree_distribution,
)
from repro.cutting.sparse import top_k
from repro.cutting.tree import partition_tree
from repro.cutting.variance import tree_reconstruction_variance
from repro.exceptions import ReconstructionError
from repro.harness.scaling import dag_cut_circuit, tree_cut_circuit
from repro.utils.bits import permute_probability_axes

from tests.oracles import (
    contract_network_unordered,
    dense_reconstruction_reference,
    postprocess_reference,
)

MULTI_SOURCE = [(0, 2), (1, 2)]

# ---------------------------------------------------------------------------
# one closing merge of two synthetic clusters
# ---------------------------------------------------------------------------

#: ``(labels of a, labels of b)``; every layout covers qubits ``0..n-1``
LAYOUTS = {
    "identity-15": (list(range(8)), list(range(8, 15))),
    "interleaved-17": (list(range(0, 17, 2)), list(range(1, 17, 2))),
    "scrambled-15": ([3, 0, 9, 14, 6, 1, 12, 7], [13, 2, 10, 5, 8, 11, 4]),
    # one side holds only qubits above the block: each block keeps one
    "high-side-17": (list(range(14)), [16, 14, 15]),
    "high-a-side-17": ([14, 15, 16], list(range(14))),
    "high-side-gather-17": (list(range(12)) + [16, 13], [15, 12, 14]),
    "interleaved-6": ([0, 2, 4], [1, 3, 5]),
    "empty-side-15": (list(range(15)), []),
}


def _clusters(labels_a, labels_b, rows, dtype, seed=0):
    """Two closing clusters sharing group 0 (``rows`` rows; ``None`` = no
    shared group, an outer product)."""
    rng = np.random.default_rng(seed)

    def side(labels, member):
        shape = (() if rows is None else (rows,)) + (1 << len(labels),)
        return _NetCluster(
            groups=[] if rows is None else [0],
            t=rng.standard_normal(shape).astype(dtype),
            labels=list(labels),
            members={member},
        )

    return side(labels_a, 0), side(labels_b, 1)


def _whole_vector(a, b, cuts):
    merged = _merge_clusters(a, b, [cuts])
    full = permute_probability_axes(merged.t.reshape(-1), merged.labels)
    full /= float(1 << cuts)
    return full


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows", [4, None], ids=["S=4", "S=1"])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_closing_merge_matches_whole_vector_oracle(layout, rows, dtype):
    labels_a, labels_b = LAYOUTS[layout]
    n = len(labels_a) + len(labels_b)
    cuts = 2
    a, b = _clusters(labels_a, labels_b, rows, dtype)
    ref = _whole_vector(a, b, cuts)

    raw = _merge_clusters(a, b, [cuts], out=_DenseTail(2.0**-cuts))
    assert raw.groups == [] and raw.labels == list(range(n))
    assert raw.t.dtype == dtype and raw.t.shape == (1 << n,)
    np.testing.assert_array_equal(raw.t, ref)

    tail = _DenseTail(2.0**-cuts, clip=True)
    clipped = _merge_clusters(a, b, [cuts], out=tail).t
    # clip skips the power-of-two scale: it cancels in the normalisation
    np.testing.assert_array_equal(clipped, np.maximum(ref * (1 << cuts), 0))
    np.testing.assert_array_max_ulp(
        clipped / tail.mass, postprocess_reference(ref.copy(), "clip"), 1
    )


# ---------------------------------------------------------------------------
# whole reconstructions
# ---------------------------------------------------------------------------


def _tree(parents, fresh, cuts=1, seed=5):
    qc, specs = tree_cut_circuit(
        parents, cuts, fresh_per_fragment=fresh, depth=2, seed=seed
    )
    return partition_tree(qc, specs)


def _multi_source(fresh, seed=5):
    qc, specs = dag_cut_circuit(
        MULTI_SOURCE, 1, fresh_per_fragment=fresh, depth=2, seed=seed
    )
    return partition_tree(qc, specs)


#: ``name -> (tree factory, plan)``
NETWORKS = {
    # the closing merge's labels are already 0..n-1: GEMM straight in
    "chain-15-identity": (lambda: _tree([0, 1], 5), None),
    "y-15-interleaved": (lambda: _tree([0, 0], 5), None),
    # a root with no outputs, 2-cut groups (S = 16) on the closing merge
    "tree-17": (lambda: _tree([0, 0, 1, 1], 3, cuts=2), None),
    # the first merge joins the two sources: an S = 1 outer product
    "multi-source-15": (
        lambda: _multi_source(5),
        ContractionPlan(num_nodes=3, steps=((0, 1), (0, 2))),
    ),
    "y-12": (lambda: _tree([0, 0], 4), None),
}


@pytest.fixture(scope="module", params=list(NETWORKS))
def network(request):
    make, plan = NETWORKS[request.param]
    tree = make()
    return exact_tree_data(tree), plan


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_reconstruction_matches_whole_vector_oracle(network, dtype):
    data, plan = network
    for mode in ("raw", "clip", "simplex"):
        got = reconstruct_tree_distribution(
            data, postprocess=mode, dtype=dtype, plan=plan
        )
        ref = dense_reconstruction_reference(
            data, postprocess=mode, dtype=dtype, plan=plan
        )
        assert got.dtype == ref.dtype
        if mode == "clip":
            np.testing.assert_array_max_ulp(got, ref, 1)
        else:
            np.testing.assert_array_equal(got, ref)


def test_top_k_full_stays_bit_identical_across_blocks(network):
    data, plan = network
    dense = reconstruct_tree_distribution(data, postprocess="raw", plan=plan)
    sd = reconstruct_tree_distribution(
        data, postprocess="raw", plan=plan, prune=top_k(dense.size)
    )
    assert sd.prune_bound == 0.0
    np.testing.assert_array_equal(sd.to_dense(), dense)


def test_clip_to_zero_mass_still_raises_across_blocks():
    data = exact_tree_data(_tree([0, 0], 5))
    # zeroing one node's records zeroes the whole (linear) result
    zeroed = replace(
        data,
        records=[{k: np.zeros_like(r) for k, r in data.records[0].items()}]
        + data.records[1:],
    )
    assert not reconstruct_tree_distribution(zeroed, postprocess="raw").any()
    with pytest.raises(ReconstructionError, match="zero mass"):
        reconstruct_tree_distribution(zeroed)


def test_variance_matches_sum_then_permute():
    """Each term now arrives in qubit order; summing them matches the old
    sum-in-contraction-order-then-permute-once within 1e-15."""
    from repro.cutting.reconstruction import _resolve_plan
    from repro.cutting.variance import _tree_row_stats

    tree = _tree([0, 0], 5)
    data = run_tree_fragments(tree, IdealBackend(), shots=300, seed=17)
    var = tree_reconstruction_variance(data)
    assert var.sum() > 0

    stats = [_tree_row_stats(data, i) for i in range(tree.num_fragments)]
    plan = _resolve_plan(tree, None, None)
    total = 0.0
    for v in range(tree.num_fragments):
        tensors = [
            stats[i][1] if i == v else np.square(stats[i][0])
            for i in range(tree.num_fragments)
        ]
        vec, order = contract_network_unordered(tensors, tree, plan)
        total = total + vec
    old = permute_probability_axes(total, order) / float(4**tree.total_cuts)
    np.testing.assert_allclose(var, old, rtol=0, atol=1e-15)


def test_dense_18q_holds_one_output_array():
    """tracemalloc peak of a dense 18-qubit reconstruction stays below
    1.5 output vectors: the closing merge writes the result in place of
    the GEMM product, the permuted copy and the clip pass."""
    data = exact_tree_data(_tree([0, 0], 6))
    assert len(data.tree.output_order()) == 18
    vector_bytes = 8 << 18
    for mode in ("clip", "raw"):
        tracemalloc.start()
        try:
            p = reconstruct_tree_distribution(data, postprocess=mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p.nbytes == vector_bytes
        assert peak < 1.5 * vector_bytes


# ---------------------------------------------------------------------------
# postprocess= is checked before any work
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("prune", [None, top_k(8)])
def test_unknown_postprocess_fails_before_any_tensor(monkeypatch, prune):
    calls = []

    def spy(name):
        real = getattr(rec, name)

        def wrapped(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(rec, name, wrapped)

    spy("_merge_clusters")
    spy("build_tree_fragment_tensor")
    data = exact_tree_data(_tree([0, 0], 2))
    with pytest.raises(ReconstructionError, match="unknown postprocess"):
        reconstruct_tree_distribution(data, postprocess="clipp", prune=prune)
    assert calls == []
    reconstruct_tree_distribution(data, prune=prune)
    assert calls.count("_merge_clusters") == data.tree.num_fragments - 1
