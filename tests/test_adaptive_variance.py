"""Tests for the reconstruction variance model on the single-cut (2-node) tree."""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.core import golden_ansatz
from repro.core.neglect import tree_reduced_variants
from repro.cutting import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.cutting.variance import (
    tree_predicted_stddev_tv,
    tree_reconstruction_variance,
    tree_tv_bound,
)

from tests.helpers import pair_tree


@pytest.fixture(scope="module")
def golden_tree():
    spec = golden_ansatz(5, depth=3, golden_basis="Y", seed=71)
    return spec, pair_tree(spec.circuit, spec.cut_spec)


def _run(tree, shots, seed, variants=None):
    return run_tree_fragments(
        tree, IdealBackend(), shots=shots, variants=variants, seed=seed
    )


class TestVariance:
    def test_exact_data_zero_variance(self, golden_tree):
        _, tree = golden_tree
        var = tree_reconstruction_variance(exact_tree_data(tree))
        np.testing.assert_allclose(var, 0.0)

    def test_variance_scales_inversely_with_shots(self, golden_tree):
        _, tree = golden_tree
        v1 = tree_reconstruction_variance(_run(tree, 500, 9))
        v2 = tree_reconstruction_variance(_run(tree, 50_000, 9))
        assert v2.sum() < v1.sum() / 10

    def test_prediction_tracks_empirical_variance(self, golden_tree):
        """Delta-method prediction within a small factor of truth."""
        _, tree = golden_tree
        samples = []
        predictions = []
        for t in range(40):
            data = _run(tree, 2000, 100 + t)
            samples.append(reconstruct_tree_distribution(data, postprocess="raw"))
            if t < 5:
                predictions.append(tree_reconstruction_variance(data))
        empirical = np.var(np.array(samples), axis=0, ddof=1)
        predicted = np.mean(predictions, axis=0)
        # compare total variance mass: same order of magnitude
        ratio = predicted.sum() / max(empirical.sum(), 1e-12)
        assert 0.3 < ratio < 3.0, ratio

    def test_golden_variance_not_larger(self, golden_tree):
        """Dropping golden rows cannot inflate the variance estimate."""
        _, tree = golden_tree
        bases, variants = tree_reduced_variants(tree, [{0: "Y"}])
        full = _run(tree, 5000, 11)
        red = _run(tree, 5000, 11, variants=variants)
        v_full = tree_reconstruction_variance(full).sum()
        v_red = tree_reconstruction_variance(red, bases=bases).sum()
        assert v_red <= v_full * 1.05

    def test_predicted_stddev_tv_positive(self, golden_tree):
        _, tree = golden_tree
        assert tree_predicted_stddev_tv(_run(tree, 1000, 12)) > 0.0

    def test_cut_run_view_reports_tree_variance(self, golden_tree):
        """The single-cut result's variance is the 2-node tree's model,
        evaluated over the basis pools the run reconstructed from."""
        from repro.core import cut_and_run

        spec, _ = golden_tree
        run = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=2000,
            golden="known", golden_map={0: "Y"}, seed=13,
        )
        tree_run = run.tree_run
        np.testing.assert_array_equal(
            run.variance(),
            tree_reconstruction_variance(tree_run.data, bases=tree_run.bases),
        )
        assert run.predicted_stddev_tv() == tree_predicted_stddev_tv(
            tree_run.data, bases=tree_run.bases
        )

    def test_tv_bound_adds_structural_bounds(self, golden_tree):
        _, tree = golden_tree
        data = _run(tree, 1000, 14)
        base = tree_predicted_stddev_tv(data)
        assert tree_tv_bound(data) == base
        assert tree_tv_bound(
            data, prune_bound=0.01, degradation_bound=0.02
        ) == pytest.approx(base + 0.03)
        assert tree_tv_bound(exact_tree_data(tree), prune_bound=0.01) == 0.01
