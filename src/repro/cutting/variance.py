"""Shot-noise variance of the reconstruction estimator.

The paper's §IV notes that online golden detection "would require further
statistical analysis of acceptable error and the amplification of error
through tensor contraction".  This module supplies that analysis for the
reconstruction itself: a first-order (delta-method) variance estimate of
every reconstructed probability.

Model.  The estimator contracts ``N`` independent fragment tensors (each
fragment's variants are separate device runs; the paper's single cut is
``N = 2``).  A reduced-tensor entry is a signed sum of multinomial
estimates: for one multinomial sample of size ``S``, a signed sum
``Δ̂ = Σ_r c_r p̂_r`` with ``c_r ∈ {−1,0,+1}`` has

    Var(Δ̂) = (Σ_r c_r² p_r − (Σ_r c_r p_r)²) / S,

and variances add across the independent preparation-eigenstate runs a
row consumes.  Ignoring covariance *between basis rows* (rows share
settings, so this is a heuristic — benchmarked against empirical variance
in the test suite, where it tracks within a small factor) and the
higher-order Var·Var cross terms, the delta method gives, per basis-row
combination,

    Var(Π_i T_i) ≈ Σ_i (Π_{j≠i} T_j²) · Var(T_i),

and the substituted products are contracted along the same network path
as the reconstruction itself.  Golden cuts drop rows and therefore
variance terms — one quantitative reason the method costs no accuracy at
equal per-variant shots.
"""

from __future__ import annotations

import numpy as np

from repro.cutting.reconstruction import (
    _chain_row_runs,
    _chain_rows,
    _contract_network,
    _resolve_plan,
    _tree_of,
    build_tree_fragment_tensor,
)

__all__ = [
    "chain_predicted_stddev_tv",
    "chain_reconstruction_variance",
    "tree_predicted_stddev_tv",
    "tree_reconstruction_variance",
    "tree_tv_bound",
]


def _tree_row_stats(data, index: int, bases=None):
    """Means and variances of one node's reduced tensor rows.

    Record resolution (``I``-fallback, eigenstate expansion, signs) comes
    from the shared :func:`~repro.cutting.reconstruction._chain_row_runs`
    iterator over the node's *flat* exiting rows, so the variance model
    consumes exactly the runs the reconstruction does.  Per independent run
    the multinomial signed-sum rule gives ``Var = (Σ c² p − mean²)/N``;
    entering-side signs square away and run variances add.  Both returned
    arrays carry one row axis per child group, ready for the network
    contraction.
    """
    frag, records, _, _, rows_prev, rows_next, fallback = _chain_rows(
        data, index, bases
    )
    N = max(data.shots_per_variant, 1)
    means, _, _ = build_tree_fragment_tensor(data, index, bases)
    flat = np.zeros((len(rows_prev), len(rows_next), 1 << frag.n_out))
    for a, b, _sign, signs_n, A in _chain_row_runs(
        index, frag, records, rows_prev, rows_next, fallback
    ):
        run_mean = A @ signs_n
        flat[a, b] += np.clip(A.sum(axis=1) - run_mean**2, 0.0, None) / N
    return means, flat.reshape(means.shape)


def tree_reconstruction_variance(data, bases=None) -> np.ndarray:
    """Per-bitstring variance estimate of a tree reconstruction.

    Aligned with :func:`repro.cutting.reconstruction.reconstruct_tree_distribution`
    output; exact data (``shots=0``) yields zeros.  For each fragment the
    network is re-contracted with that fragment's variance tensor
    substituted and every other tensor squared (first-order delta method).
    """
    tree = _tree_of(data)
    n_total = len(tree.output_order())
    if data.shots_per_variant <= 0:
        return np.zeros(1 << n_total)
    stats = [
        _tree_row_stats(data, i, bases) for i in range(tree.num_fragments)
    ]
    plan = _resolve_plan(tree, bases, None)
    scale = 1.0 / float(4**tree.total_cuts)
    # every term arrives in qubit order from the contraction's last merge
    total = np.zeros(1 << n_total)
    for v in range(tree.num_fragments):
        tensors = [
            stats[i][1] if i == v else np.square(stats[i][0])
            for i in range(tree.num_fragments)
        ]
        total += _contract_network(tensors, tree, plan, bases)
    return scale * total


def tree_predicted_stddev_tv(data, bases=None) -> float:
    """Predicted E[TV error] proxy: ``½ Σ_b σ(b)`` under the variance model.

    A half-normal first moment would multiply by √(2/π); we keep the plain
    half-sum as a conservative scalar summary for shot-budget planning.
    """
    var = tree_reconstruction_variance(data, bases)
    return float(0.5 * np.sqrt(np.clip(var, 0, None)).sum())


def tree_tv_bound(
    data, bases=None, prune_bound: float = 0.0, degradation_bound: float = 0.0
) -> float:
    """Total predicted TV error of a (possibly pruned) tree reconstruction.

    The delta-method sampling stddev summary plus the rigorous L1 bound
    on the mass a ``prune=`` policy discarded (see
    :mod:`repro.cutting.sparse`): the two error sources are independent —
    shot noise perturbs the kept entries, pruning removes entries — so
    the total TV error is bounded (to first order in each) by their sum.
    ``degradation_bound`` adds the superoperator-norm penalty for basis
    rows graceful degradation demoted after permanent backend failures
    (see :func:`~repro.cutting.resilience.degradation_tv_penalty`) — a
    third independent error source: demotion removes channel terms the
    surviving rows never see.  The variance model densifies
    intermediates, so call this for small-``n`` diagnostics; on exact
    fragment data the sampling term is exactly zero and the structural
    bounds alone bound the TV error.
    """
    return (
        tree_predicted_stddev_tv(data, bases)
        + float(prune_bound)
        + float(degradation_bound)
    )


def chain_reconstruction_variance(data, bases=None) -> np.ndarray:
    """Chain alias of :func:`tree_reconstruction_variance` (linear tree)."""
    return tree_reconstruction_variance(data, bases)


def chain_predicted_stddev_tv(data, bases=None) -> float:
    """Chain alias of :func:`tree_predicted_stddev_tv` (linear tree)."""
    return tree_predicted_stddev_tv(data, bases)
