"""Benchmarks of the searched DAG contraction path (PR 9).

Measures the reconstruction contraction of a **branchy 5-fragment DAG**
(a diamond with a tail, 2 cuts per group — the joint-prep sink's flat
entering space is the product over its two entering groups) three ways:

* ``dag-contraction-fixed`` — the historical fixed leaves-to-root merge
  order (reverse topological), the baseline the tree engine used;
* ``dag-contraction-searched`` — the DP-optimal
  :class:`~repro.cutting.contraction.ContractionPlan` the reconstruction
  now searches automatically on DAG inputs (the committed perf claim:
  the searched path beats the fixed order on this shape);
* ``dag-pipeline`` — end-to-end ``reconstruct_tree_distribution`` with
  automatic plan search (tensor builds included), plus the plan search
  itself (``dag-plan-search``), which must stay negligible.

Baselines live in ``benchmarks/BENCH_dag_contraction.json``; refresh with
``python benchmarks/compare.py --write-baseline --suite dag_contraction``
and compare a working tree against them with
``python benchmarks/compare.py``.
"""

import pytest
from conftest import record_memory

from repro.cutting.contraction import (
    dp_plan,
    fixed_plan,
    network_spec_for_tree,
    search_plan,
)
from repro.cutting.execution import exact_tree_data
from repro.cutting.reconstruction import (
    _contract_network,
    build_tree_fragment_tensor,
    reconstruct_tree_distribution,
)
from repro.cutting.tree import partition_tree
from repro.harness.scaling import dag_cut_circuit

#: diamond + tail: 0 feeds 1 and 2, which jointly prepare 3, feeding 4
_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)]


def _tree():
    qc, specs = dag_cut_circuit(
        _EDGES, cuts_per_group=2, fresh_per_fragment=1, depth=2, seed=11
    )
    return partition_tree(qc, specs)


_TREE = _tree()
_DATA = exact_tree_data(_TREE)
_TENSORS = [
    build_tree_fragment_tensor(_DATA, i)[0]
    for i in range(_TREE.num_fragments)
]
_SPEC = network_spec_for_tree(_TREE)
_FIXED = fixed_plan(_SPEC)
_SEARCHED = dp_plan(_SPEC)


@pytest.mark.benchmark(group="dag-contraction-fixed")
def test_dag_contraction_fixed(benchmark):
    """Baseline: the fixed leaves-to-root order on the branchy DAG."""
    vec = record_memory(
        benchmark, _contract_network, _TENSORS, _TREE, _FIXED, None
    )
    benchmark(lambda: _contract_network(_TENSORS, _TREE, _FIXED, None))
    assert vec.size == 1 << len(_TREE.output_order())


@pytest.mark.benchmark(group="dag-contraction-searched")
def test_dag_contraction_searched(benchmark):
    """The searched plan must beat the fixed order (the perf gate)."""
    assert _SEARCHED.cost * 5 <= _FIXED.cost
    vec = record_memory(
        benchmark, _contract_network, _TENSORS, _TREE, _SEARCHED, None
    )
    benchmark(lambda: _contract_network(_TENSORS, _TREE, _SEARCHED, None))
    assert vec.size == 1 << len(_TREE.output_order())


@pytest.mark.benchmark(group="dag-plan-search")
def test_dag_plan_search(benchmark):
    """Cost of the plan search itself (spec build + auto planner)."""
    plan = benchmark(
        lambda: search_plan(network_spec_for_tree(_TREE), "auto")
    )
    assert plan.cost == _SEARCHED.cost


@pytest.mark.benchmark(group="dag-pipeline")
def test_dag_reconstruction_pipeline(benchmark):
    """End-to-end planned reconstruction (tensor builds included)."""
    p = record_memory(
        benchmark, reconstruct_tree_distribution, _DATA, postprocess="raw"
    )
    benchmark(
        lambda: reconstruct_tree_distribution(_DATA, postprocess="raw")
    )
    assert p.size == 1 << len(_TREE.output_order())
