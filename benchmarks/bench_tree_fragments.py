"""Benchmarks of fragment-tree execution and reconstruction (PR 5).

Measures the cost of producing and reconstructing a genuine **5-node
fragment tree** result set (a two-level topology whose interior node feeds
two child groups) three ways:

* ``tree-noisy-cached`` — the production fast path:
  :meth:`~repro.backends.fake_hardware.FakeHardwareBackend.run_tree_variants`
  served by a fresh :class:`~repro.cutting.cache.TreeCachePool` (one
  transpile per node body, ``4^{K_in}`` body evolutions + ``3^{K_out}``
  batched rotation passes per node);
* ``tree-noisy-reference`` — the pre-cache semantics: every combined
  ``(inits, setting)`` variant circuit transpiled and density-evolved from
  scratch;
* ``tree-noisy-warm`` — marginal cost of re-serving every variant from a
  warmed pool (the repeat-consumer path inside ``cut_and_run_tree``).

Plus the classical side:

* ``tree-reconstruction`` — the leaves-to-root contraction over the five
  per-node tensors vs the brute-force row-loop over the full basis product
  across all four cut groups.

Baselines live in ``benchmarks/BENCH_tree_fragments.json``; refresh with
``python benchmarks/compare.py --write-baseline --suite tree_fragments``
and compare a working tree against them with
``python benchmarks/compare.py``.
"""

import pytest

from repro.backends.base import Backend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.cutting.execution import exact_tree_data, run_tree_fragments
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.cutting.tree import partition_tree
from repro.cutting.variants import tree_variant_tuples
from repro.harness.scaling import tree_cut_circuit
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.transpile.coupling import CouplingMap

from tests.oracles import reconstruct_tree_distribution_reference

_SHOTS = 1000
_PARENTS = [0, 0, 1, 1]  # two-level tree, interior node with 2 child groups


def _noise(num_qubits: int) -> NoiseModel:
    nm = NoiseModel()
    nm.add_gate_noise(["sx", "x", "rz"], depolarizing(2e-3))
    nm.add_gate_noise(["sx", "x"], amplitude_damping(1.5e-3))
    nm.add_gate_noise(["cx"], two_qubit_depolarizing(8e-3))
    for q in range(num_qubits):
        nm.add_readout_error(q, ReadoutError(p01=0.015, p10=0.03))
    return nm


def _device() -> FakeHardwareBackend:
    return FakeHardwareBackend(
        CouplingMap.linear(6), _noise(6), name="bench_tree_6q"
    )


def _tree():
    qc, specs = tree_cut_circuit(
        _PARENTS, 1, fresh_per_fragment=2, depth=2, seed=920
    )
    return partition_tree(qc, specs)


_TREE = _tree()
_VARIANTS = [
    tree_variant_tuples(_TREE, i) for i in range(_TREE.num_fragments)
]
_NUM_VARIANTS = sum(len(v) for v in _VARIANTS)


def _run_cached():
    """Fast path: run_tree_fragments + fresh TreeCachePool (cold)."""
    dev = _device()
    pool = dev.make_tree_cache_pool(_TREE)
    return run_tree_fragments(_TREE, dev, shots=_SHOTS, seed=0, pool=pool)


def _run_reference():
    """Pre-cache semantics: every combined variant through ``_execute``."""
    dev = _device()
    out = []
    for i, combos in enumerate(_VARIANTS):
        out.extend(
            Backend.run_tree_variants(
                dev, _TREE, i, combos, shots=_SHOTS, seed=0
            )
        )
    return out


@pytest.mark.benchmark(group="tree-noisy-cached")
def test_tree_noisy_cached(benchmark):
    data = benchmark(_run_cached)
    assert data.num_variants == _NUM_VARIANTS


@pytest.mark.benchmark(group="tree-noisy-reference")
def test_tree_noisy_reference(benchmark):
    results = benchmark.pedantic(
        _run_reference, rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(results) == _NUM_VARIANTS


@pytest.mark.benchmark(group="tree-noisy-warm")
def test_tree_noisy_warm_pool(benchmark):
    """Marginal cost of re-serving every variant from a warmed pool."""
    dev = _device()
    pool = dev.make_tree_cache_pool(_TREE).warm(_VARIANTS)
    data = benchmark(
        lambda: run_tree_fragments(
            _TREE, dev, shots=_SHOTS, seed=0, pool=pool
        )
    )
    assert data.num_variants == _NUM_VARIANTS


_EXACT_DATA = exact_tree_data(_TREE)


@pytest.mark.benchmark(group="tree-reconstruction")
def test_tree_reconstruction_contraction(benchmark):
    p = benchmark(
        lambda: reconstruct_tree_distribution(_EXACT_DATA, postprocess="raw")
    )
    assert p.size == 1 << len(_TREE.output_order())


@pytest.mark.benchmark(group="tree-reconstruction")
def test_tree_reconstruction_reference(benchmark):
    p = benchmark(
        lambda: reconstruct_tree_distribution_reference(_EXACT_DATA)
    )
    assert p.size == 1 << len(_TREE.output_order())
