"""Benchmarks of fragment-variant execution (the simulation hot path).

Measures the cost of producing the full fragment records of the paper's
single cut — the 2-node fragment tree — across cut counts, three ways:

* ``tree2-exact`` — the production cached path
  (:func:`~repro.cutting.execution.exact_tree_data`): one batched body
  simulation per fragment serves all ``3^K + 6^K`` variants;
* ``tree2-exact-reference`` — the pre-cache semantics: every variant
  circuit simulated from scratch (the ``3^K + 6^K`` scaling the paper's
  cost model counts);
* ``tree2-sampled`` — :func:`~repro.cutting.execution.run_tree_fragments`
  against the ideal backend (cache + multinomial sampling);
* ``tree2-exact-counts`` — the same call against ``IdealBackend(exact=True)``:
  rounded expected counts, no draw, so the cell times the per-variant
  count-vector → record path itself.

Baselines live in ``benchmarks/BENCH_fragments.json``; refresh with
``python benchmarks/compare.py --write-baseline`` and compare a working
tree against them with ``python benchmarks/compare.py``.
"""

import pytest

from repro.backends import IdealBackend
from repro.cutting.execution import exact_tree_data, run_tree_fragments
from repro.cutting.tree import partition_tree
from repro.cutting.variants import tree_variant, tree_variant_tuples
from repro.harness.scaling import multi_cut_golden_circuit
from repro.sim import simulate_statevector

_TREES = {}
for K in (1, 2, 3):
    qc, spec = multi_cut_golden_circuit(K, extra_up=2, extra_down=2, depth=2, seed=900 + K)
    _TREES[K] = partition_tree(qc, [spec])


def _exact_reference(tree):
    """Simulate every physical variant circuit (pre-cache semantics)."""
    return [
        simulate_statevector(tree_variant(tree, i, a, s)).probabilities()
        for i in range(tree.num_fragments)
        for a, s in tree_variant_tuples(tree, i)
    ]


@pytest.mark.benchmark(group="tree2-exact")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_exact_tree2_data_cached(benchmark, K):
    data = benchmark(exact_tree_data, _TREES[K])
    assert data.num_variants == 3**K + 6**K


@pytest.mark.benchmark(group="tree2-exact-reference")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_exact_tree2_data_reference(benchmark, K):
    probs = benchmark(_exact_reference, _TREES[K])
    assert len(probs) == 3**K + 6**K


@pytest.mark.benchmark(group="tree2-sampled")
@pytest.mark.parametrize("K", [1, 2])
def test_run_tree2_fragments_ideal(benchmark, K):
    tree = _TREES[K]
    data = benchmark(
        lambda: run_tree_fragments(tree, IdealBackend(), shots=1000, seed=0)
    )
    assert data.num_variants == 3**K + 6**K


@pytest.mark.benchmark(group="tree2-exact-counts")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_run_tree2_fragments_ideal_exact(benchmark, K):
    tree = _TREES[K]
    data = benchmark(
        lambda: run_tree_fragments(
            tree, IdealBackend(exact=True), shots=1000, seed=0
        )
    )
    assert data.num_variants == 3**K + 6**K


# ---------------------------------------------------------------------------
# Batched upstream rotation application (ROADMAP lever, PR 5 satellite).
# At K = 4 the tree cache must rotate its cached column bank for all
# ``3^4 = 81`` measurement settings; the per-setting loop re-reads the whole
# bank 81 times, the batched path builds every rotated bank with one stacked
# tensor contraction per cut (``warm_rotations``).

_ROT_K = 4


def _rotation_fragment():
    from repro.cutting.tree import partition_tree
    from repro.harness.scaling import tree_cut_circuit

    qc, specs = tree_cut_circuit(
        [0], _ROT_K, fresh_per_fragment=2, depth=2, seed=940
    )
    tree = partition_tree(qc, specs)
    frag = tree.fragments[0]
    assert frag.num_meas == _ROT_K
    return frag


_ROT_FRAG = _rotation_fragment()


@pytest.mark.benchmark(group="rotations-K4")
def test_rotations_per_setting_loop(benchmark):
    from repro.cutting.cache import TreeFragmentSimCache
    from repro.cutting.variants import upstream_setting_tuples

    settings = upstream_setting_tuples(_ROT_K)

    def run():
        cache = TreeFragmentSimCache(_ROT_FRAG)
        for s in settings:
            cache._rotated_columns(s)
        return cache

    cache = benchmark(run)
    assert len(cache._rotated) == 3**_ROT_K


@pytest.mark.benchmark(group="rotations-K4")
def test_rotations_batched_stack(benchmark):
    from repro.cutting.cache import TreeFragmentSimCache
    from repro.cutting.variants import upstream_setting_tuples

    settings = upstream_setting_tuples(_ROT_K)

    def run():
        cache = TreeFragmentSimCache(_ROT_FRAG)
        cache.warm_rotations(settings)
        return cache

    cache = benchmark(run)
    assert len(cache._rotated) == 3**_ROT_K
