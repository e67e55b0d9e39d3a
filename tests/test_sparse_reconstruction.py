"""Sparse / top-k tree reconstruction (``prune=``) and the float32 path.

The contract under test (see :mod:`repro.cutting.sparse`):

* **bound soundness** — for any tree, any threshold, the L1 distance
  between the sparse raw reconstruction and the dense raw reconstruction
  of the *same data* is at most the reported ``prune_bound``
  (hypothesis-tested over random trees and thresholds);
* **dense degeneracy** — ``top_k(2^n)`` and ``threshold(0)`` keep
  everything and are bit-identical to the dense path, with a bound of
  exactly 0.0 (pruning is opt-in: the dense code path is untouched);
* **float32 fast path** — ``dtype=np.float32`` tracks the float64
  result to ≤ 1e-6 while RNG streams (sampling happens before the cast)
  are unchanged;
* **sparse sampling** — ``reconstruct_counts`` samples a pruned
  reconstruction over the kept outcomes only, and its dense path
  consumes the RNG exactly as :func:`repro.sim.sampler.sample_counts`
  always has (regression-pinned here);
* postprocess edge cases, dense and sparse.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.core.pipeline import cut_and_run_tree
from repro.cutting import partition_tree
from repro.cutting.execution import (
    exact_tree_data,
    run_tree_fragments,
)
from repro.cutting.reconstruction import (
    project_to_simplex,
    reconstruct_counts,
    reconstruct_tree_distribution,
)
from repro.cutting.sparse import (
    SparseDistribution,
    postprocess_sparse,
    threshold,
    top_k,
)
from repro.cutting.variance import tree_tv_bound
from repro.exceptions import ReconstructionError, SimulationError
from repro.harness.scaling import (
    ghz_star_circuit,
    ghz_star_truth,
    tree_cut_circuit,
)
from repro.sim import simulate_statevector
from repro.sim.sampler import probs_to_counts, sample_sparse_counts
from repro.utils.bits import bitstring_to_index

TOL = 1e-9

_slow = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: builder-tree shapes exercised by the property tests: a chain, a Y and
#: a two-level tree with a branching interior node
_SHAPES = [[0], [0, 0], [0, 1], [0, 0, 1]]


def _tree_data(parents, seed):
    qc, specs = tree_cut_circuit(
        parents, 1, fresh_per_fragment=2, depth=2, seed=seed
    )
    tree = partition_tree(qc, specs)
    return exact_tree_data(tree)


# ---------------------------------------------------------------- policies


def test_policy_validation():
    with pytest.raises(ReconstructionError):
        threshold(-1e-3)
    with pytest.raises(ReconstructionError):
        top_k(0)


def test_policies_never_select_empty():
    scores = np.array([0.1, 0.9, 0.3])
    assert list(threshold(2.0).select(scores)) == [1]  # argmax fallback
    assert list(top_k(1).select(scores)) == [1]
    assert list(top_k(10).select(scores)) == [0, 1, 2]  # k >= size: all
    assert list(threshold(0.2).select(scores)) == [1, 2]


def test_top_k_stable_tie_break():
    scores = np.array([0.5, 0.5, 0.5, 0.5])
    assert list(top_k(2).select(scores)) == [0, 1]


def test_top_k_ties_follow_merged_column_order():
    """Tied outcomes are kept in merged column order, first operand's
    columns fastest — not in final qubit-order index.

    Node 0 outputs qubits (0, 3) and node 1 qubits (1, 2); every node
    score ties, so each keeps its three lowest output indices.  At the
    final merge node 0's columns run fastest: ``q3=1`` (column 2, final
    index 8) outranks the tied ``q2=1`` (column 6, final index 4).
    """
    from repro.circuits.circuit import Circuit
    from repro.cutting.cut import CutPoint, CutSpec

    qc = Circuit(4).h(0).cx(0, 1).h(2).cx(1, 2).h(3)
    tree = partition_tree(qc, [CutSpec((CutPoint(1, 1),))])
    assert [f.out_original for f in tree.fragments] == [[0, 3], [1, 2]]
    data = exact_tree_data(tree)
    dense = reconstruct_tree_distribution(data, postprocess="raw")
    assert np.allclose(dense[[0, 3, 4, 8]], 0.125)  # 4 and 8 tie
    sd = reconstruct_tree_distribution(data, postprocess="raw", prune=top_k(3))
    assert list(sd.indices) == [0, 3, 8]


# ------------------------------------------------------ SparseDistribution


def test_sparse_distribution_validation():
    with pytest.raises(ReconstructionError):
        SparseDistribution(2, np.array([0, 4]), np.array([0.5, 0.5]))
    with pytest.raises(ReconstructionError):
        SparseDistribution(2, np.array([[0]]), np.array([[1.0]]))
    with pytest.raises(ReconstructionError):
        SparseDistribution(2, np.array([0, 1]), np.array([1.0]))


def test_sparse_distribution_round_trip():
    sd = SparseDistribution(3, np.array([1, 6]), np.array([0.25, 0.75]))
    dense = sd.to_dense()
    assert dense.shape == (8,)
    assert dense[1] == 0.25 and dense[6] == 0.75
    assert sd.nnz == 2
    assert sd.sum() == pytest.approx(1.0)
    assert sd.nbytes == sd.indices.nbytes + sd.values.nbytes
    d = sd.as_dict()
    assert {bitstring_to_index(k): v for k, v in d.items()} == {
        1: 0.25,
        6: 0.75,
    }
    # tv_against: the dict path (never densifies) equals the dense path
    truth = {1: 0.5, 7: 0.5}
    dense_truth = np.zeros(8)
    dense_truth[1], dense_truth[7] = 0.5, 0.5
    assert sd.tv_against(truth) == pytest.approx(sd.tv_against(dense_truth))


# ------------------------------------------------- bound soundness (prop.)


@_slow
@given(
    shape=st.sampled_from(_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(1e-8, 0.3),
)
def test_prune_bound_sound_random_trees(shape, seed, eps):
    """Sparse-vs-dense L1 error never exceeds the reported bound."""
    data = _tree_data(shape, seed)
    dense = reconstruct_tree_distribution(data, postprocess="raw")
    sd = reconstruct_tree_distribution(
        data, postprocess="raw", prune=threshold(eps)
    )
    err = np.abs(sd.to_dense() - dense).sum()
    assert err <= sd.prune_bound + TOL


@_slow
@given(shape=st.sampled_from(_SHAPES), seed=st.integers(0, 2**32 - 1))
def test_top_k_full_is_bit_identical(shape, seed):
    """``top_k(2^n)`` (and ``threshold(0)``) degrade to the dense result."""
    data = _tree_data(shape, seed)
    dense = reconstruct_tree_distribution(data, postprocess="raw")
    for policy in (top_k(dense.size), threshold(0.0)):
        sd = reconstruct_tree_distribution(
            data, postprocess="raw", prune=policy
        )
        assert sd.prune_bound == 0.0
        assert np.array_equal(sd.to_dense(), dense)


def test_prune_bound_sound_on_finite_shot_data():
    """On finite shots the ISSUE acceptance is the combined tv bound.

    Shot noise perturbs the discarded entries too, so the pruning term
    alone is exact only in expectation; the delta-method sampling term
    covers the fluctuation (``tv_bound = sampling stddev + prune_bound``).
    """
    qc, specs = tree_cut_circuit([0, 0], 1, fresh_per_fragment=2, seed=11)
    tree = partition_tree(qc, specs)
    data = run_tree_fragments(tree, IdealBackend(), shots=400, seed=5)
    dense = reconstruct_tree_distribution(data, postprocess="raw")
    sd = reconstruct_tree_distribution(
        data, postprocess="raw", prune=threshold(3e-3)
    )
    tv = 0.5 * np.abs(sd.to_dense() - dense).sum()
    assert tv <= tree_tv_bound(data, prune_bound=sd.prune_bound)


@pytest.mark.parametrize("case", ["dag", "fixed-plan-tree"])
def test_top_k_caps_outcomes_after_final_merge(case):
    """``top_k(k)`` keeps at most ``k`` outcomes on the network path — the
    final merge re-selects too — and stays within its bound of dense."""
    from repro.harness.scaling import dag_cut_circuit

    if case == "dag":
        qc, specs = dag_cut_circuit([(0, 1), (0, 2), (1, 3), (2, 3)], seed=1)
        plan, k = None, 4
    else:
        qc, specs = tree_cut_circuit(
            [0, 0, 1, 1], 1, fresh_per_fragment=2, seed=3
        )
        plan, k = "fixed", 8
    data = exact_tree_data(partition_tree(qc, specs))
    dense = reconstruct_tree_distribution(data, postprocess="raw", plan=plan)
    sd = reconstruct_tree_distribution(
        data, postprocess="raw", prune=top_k(k), plan=plan
    )
    assert sd.nnz <= k
    assert np.abs(sd.to_dense() - dense).sum() <= sd.prune_bound + TOL


def test_prune_rejects_neglected_identity():
    """Pruning needs the all-I row; a pool without I is rejected loudly."""
    data = _tree_data([0], 3)
    bases = [[("X", "Y", "Z")]]
    with pytest.raises(ReconstructionError, match="'I' basis"):
        reconstruct_tree_distribution(data, bases=bases, prune=threshold(0.1))


# ------------------------------------------------------- float32 fast path


def test_float32_tracks_float64():
    qc, specs = tree_cut_circuit([0, 0], 1, fresh_per_fragment=2, seed=21)
    tree = partition_tree(qc, specs)
    d64 = reconstruct_tree_distribution(exact_tree_data(tree))
    d32 = reconstruct_tree_distribution(
        exact_tree_data(tree, dtype=np.float32), dtype=np.float32
    )
    assert d32.dtype == np.float32
    assert np.abs(d32.astype(np.float64) - d64).max() <= 1e-6


def test_float32_pipeline_preserves_rng_stream():
    """Sampling draws before the cast: both dtypes see identical shots."""
    qc, specs = tree_cut_circuit([0, 0], 1, fresh_per_fragment=2, seed=23)
    dev = IdealBackend()
    r64 = cut_and_run_tree(qc, dev, specs, shots=300, seed=99)
    r32 = cut_and_run_tree(
        qc, dev, specs, shots=300, seed=99, dtype=np.float32
    )
    assert np.abs(
        r32.probabilities.astype(np.float64) - r64.probabilities
    ).max() <= 1e-6
    # identical RNG consumption: the float32 records are the float64
    # empirical probabilities merely rounded, never a different draw
    for rec64, rec32 in zip(r64.data.records, r32.data.records):
        for combo in rec64:
            assert rec32[combo].dtype == np.float32
            assert np.allclose(
                rec64[combo], rec32[combo].astype(np.float64), atol=1e-7
            )


# ------------------------------------------------------------ end-to-end


def test_pipeline_prune_and_tv_bound():
    qc, specs = tree_cut_circuit([0, 0], 1, fresh_per_fragment=2, seed=31)
    dev = IdealBackend()
    res = cut_and_run_tree(
        qc, dev, specs, shots=500, seed=7, prune=threshold(1e-3)
    )
    sd = res.probabilities
    assert isinstance(sd, SparseDistribution)
    assert res.prune_bound == sd.prune_bound >= 0.0
    assert res.tv_bound() == pytest.approx(
        res.predicted_stddev_tv() + res.prune_bound
    )
    assert res.tv_bound() == pytest.approx(
        tree_tv_bound(res.data, bases=res.bases, prune_bound=res.prune_bound)
    )
    # sparse expectation agrees with the scattered dense one
    diag = np.arange(float(1 << sd.num_qubits))
    assert res.expectation(diag) == pytest.approx(np.dot(sd.to_dense(), diag))


def test_ghz_star_truth_matches_statevector():
    angles = (0.3, 0.8)
    qc, specs = ghz_star_circuit(2, 2, angles=angles)
    p = simulate_statevector(qc).probabilities()
    truth = ghz_star_truth(2, 2, angles=angles)
    dense = np.zeros_like(p)
    for k, v in truth.items():
        dense[k] = v
    assert np.abs(p - dense).max() <= TOL
    # the cut-and-reconstructed sparse result hits the same distribution
    tree = partition_tree(qc, specs)
    sd = reconstruct_tree_distribution(
        exact_tree_data(tree), prune=threshold(1e-8)
    )
    assert sd.tv_against(truth) <= sd.prune_bound + TOL


def test_ghz_star_validation():
    with pytest.raises(ValueError):
        ghz_star_circuit(0, 3)
    with pytest.raises(ValueError):
        ghz_star_circuit(2, 2, angles=(0.1,))


# ------------------------------------------------------- counts / sampling


def _pair_data():
    """Exact data of a single cut — the 2-node tree."""
    from repro.circuits.circuit import Circuit
    from repro.cutting.cut import CutPoint, CutSpec

    qc = Circuit(3)
    qc.h(0)
    qc.cx(0, 1)
    qc.cx(1, 2)
    return exact_tree_data(partition_tree(qc, [CutSpec((CutPoint(1, 1),))]))


def test_reconstruct_counts_dense_path_unchanged():
    """seed=None reproduces the historical deterministic rounding exactly."""
    data = _pair_data()
    probs = reconstruct_tree_distribution(data)
    expected = probs_to_counts(probs, 1000, 3)
    assert reconstruct_counts(data, 1000) == expected


def test_reconstruct_counts_dense_rng_stream():
    """A seeded dense draw consumes the RNG exactly like sample_counts."""
    from repro.sim.sampler import sample_counts

    data = _pair_data()
    probs = reconstruct_tree_distribution(data)
    g1 = np.random.default_rng(42)
    g2 = np.random.default_rng(42)
    assert reconstruct_counts(data, 500, seed=g1) == sample_counts(
        probs, 500, g2, 3
    )
    # both generators advanced identically: next draws coincide
    assert g1.integers(1 << 30) == g2.integers(1 << 30)


def test_reconstruct_counts_sparse_never_densifies(monkeypatch):
    data = _tree_data([0, 0], 41)
    dense_counts = reconstruct_counts(data, 2000)
    # the sparse deterministic path agrees when nothing real is pruned
    monkeypatch.setattr(
        SparseDistribution,
        "to_dense",
        lambda self: (_ for _ in ()).throw(AssertionError("densified!")),
    )
    sparse_counts = reconstruct_counts(data, 2000, prune=threshold(1e-10))
    assert sparse_counts == dense_counts
    # and the seeded path samples over kept outcomes only
    counts = reconstruct_counts(
        data, 2000, prune=threshold(1e-10), seed=123
    )
    assert sum(counts.values()) == 2000


def test_reconstruct_counts_sparse_matches_sample_sparse_counts():
    data = _tree_data([0, 0], 43)
    sd = reconstruct_tree_distribution(data, prune=threshold(1e-4))
    expected = sample_sparse_counts(
        sd.indices,
        sd.values / sd.values.sum(),
        700,
        sd.num_qubits,
        np.random.default_rng(9),
    )
    got = reconstruct_counts(
        data, 700, prune=threshold(1e-4), seed=np.random.default_rng(9)
    )
    assert got == expected


def test_reconstruct_counts_prunes_single_cut_data():
    """The single cut is a tree like any other: prune= applies to it."""
    counts = reconstruct_counts(_pair_data(), 100, prune=top_k(2))
    assert len(counts) <= 2 and sum(counts.values()) == 100


def test_sample_sparse_counts_validation():
    idx = np.array([0, 3])
    with pytest.raises(SimulationError):
        sample_sparse_counts(idx, np.array([0.5]), 10, 2)
    with pytest.raises(SimulationError):
        sample_sparse_counts(idx, np.array([0.5, 0.5]), 0, 2)
    with pytest.raises(SimulationError):
        sample_sparse_counts(idx, np.array([0.9, 0.3]), 10, 2)


# --------------------------------------------------- postprocess edge cases


def test_project_to_simplex_edge_cases():
    # all-negative: still a valid distribution, ordering preserved
    v = project_to_simplex(np.array([-0.5, -0.1, -0.9]))
    assert np.allclose(v, [0.3, 0.7, 0.0])
    assert v.sum() == pytest.approx(1.0) and (v >= 0).all()
    # already a distribution: unchanged
    p = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_to_simplex(p), p)
    # single spike survives
    assert np.allclose(
        project_to_simplex(np.array([0.0, 5.0, 0.0])), [0.0, 1.0, 0.0]
    )


def test_dense_postprocess_edge_cases():
    """Through the dense reconstruction: ``"clip"`` of an all-zero
    result raises, ``"raw"`` keeps the negatives, an unknown mode is
    rejected."""
    data = _tree_data([0], 3)

    def scaled(c):
        # scaling one node's records scales the whole (linear) result
        first = {k: c * r for k, r in data.records[0].items()}
        return replace(data, records=[first] + data.records[1:])

    with pytest.raises(ReconstructionError, match="zero mass"):
        reconstruct_tree_distribution(scaled(0.0))
    negated = scaled(-1.0)
    raw = reconstruct_tree_distribution(negated, postprocess="raw")
    assert raw.min() < 0
    assert np.array_equal(
        raw, -reconstruct_tree_distribution(data, postprocess="raw")
    )
    with pytest.raises(ReconstructionError, match="unknown postprocess"):
        reconstruct_tree_distribution(data, postprocess="nope")


def test_sparse_postprocess_edge_cases():
    sd = SparseDistribution(2, np.array([0, 3]), np.array([-0.2, 0.6]))
    assert postprocess_sparse(sd, "raw") is sd
    clipped = postprocess_sparse(sd, "clip")
    assert np.array_equal(clipped.values, [0.0, 1.0])
    assert np.array_equal(clipped.indices, sd.indices)
    simplexed = postprocess_sparse(sd, "simplex")
    assert simplexed.values.sum() == pytest.approx(1.0)
    assert np.array_equal(
        simplexed.values, project_to_simplex(np.array([-0.2, 0.6]))
    )
    with pytest.raises(ReconstructionError):
        postprocess_sparse(sd, "median")
    allneg = SparseDistribution(2, np.array([1]), np.array([-1.0]))
    with pytest.raises(ReconstructionError, match="zero mass"):
        postprocess_sparse(allneg, "clip")


def test_sparse_sampling_guards():
    # raw (unnormalised beyond the pruning tolerance) refuses to sample
    sd = SparseDistribution(2, np.array([0]), np.array([0.4]))
    with pytest.raises(ReconstructionError, match="postprocess"):
        sd.sample_counts(10, seed=0)
    # within the bound's tolerance it renormalises and samples
    sd = SparseDistribution(
        2, np.array([0, 1]), np.array([0.5, 0.4]), prune_bound=0.2
    )
    counts = sd.sample_counts(50, seed=0)
    assert sum(counts.values()) == 50
    assert sd.to_counts(90) == {"00": 45, "10": 36}
