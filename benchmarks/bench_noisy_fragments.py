"""Benchmarks of *noisy* fragment-variant execution (the hardware hot path).

Measures the cost of producing the full fragment records of the paper's
single cut — the 2-node fragment tree — on the fake-hardware
(density-matrix) backend across cut counts, three ways:

* ``noisy-tree2-cached`` — the production fast path:
  :func:`~repro.cutting.execution.run_tree_fragments` served by a cold
  cache pool (one transpile per fragment body, ``1 + 4^K`` noisy body
  evolutions plus ``3^K`` batched rotation passes in total);
* ``noisy-tree2-reference`` — the pre-cache semantics: every variant
  circuit transpiled and density-evolved from scratch (``3^K + 6^K``
  transpiles + evolutions, what the paper's cost model counts);
* ``noisy-tree2-warm`` — marginal cost of re-serving every variant from a
  warmed pool (the pilot→production reuse inside
  :func:`repro.core.pipeline.cut_and_run`).

Both paths produce identical counts (pinned at ≤ 1e-9 on the underlying
distributions by ``tests/test_noisy_fast_path_equivalence.py``).
Baselines live in ``benchmarks/BENCH_noisy_fragments.json``; refresh with
``python benchmarks/compare.py --write-baseline --suite noisy_fragments``
and compare a working tree against them with
``python benchmarks/compare.py``.
"""

import pytest

from repro.backends.base import Backend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.cutting.execution import run_tree_fragments
from repro.cutting.tree import partition_tree
from repro.cutting.variants import tree_variant_tuples
from repro.harness.scaling import multi_cut_golden_circuit
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.transpile.coupling import CouplingMap

_SHOTS = 1000


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
        CouplingMap.linear(5), _noise(5), name="bench_noisy_5q"
    )


_TREES = {}
for K in (1, 2, 3):
    qc, spec = multi_cut_golden_circuit(
        K, extra_up=2, extra_down=2, depth=2, seed=900 + K
    )
    _TREES[K] = partition_tree(qc, [spec])


def _variants(tree):
    return [tree_variant_tuples(tree, i) for i in range(tree.num_fragments)]


def _run_cached(tree):
    """Fast path: run_tree_fragments + a fresh (cold) cache pool."""
    dev = _device()
    return run_tree_fragments(
        tree, dev, shots=_SHOTS, seed=0, pool=dev.make_tree_cache_pool(tree)
    )


def _run_reference(tree):
    """Pre-cache semantics: every variant circuit through ``_execute``."""
    dev = _device()
    # the base-class implementation materialises and executes each circuit
    return [
        res
        for i, combos in enumerate(_variants(tree))
        for res in Backend.run_tree_variants(
            dev, tree, i, combos, shots=_SHOTS, seed=0
        )
    ]


@pytest.mark.benchmark(group="noisy-tree2-cached")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_noisy_tree2_cached(benchmark, K):
    data = benchmark(_run_cached, _TREES[K])
    assert data.num_variants == 3**K + 6**K


@pytest.mark.benchmark(group="noisy-tree2-reference")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_noisy_tree2_reference(benchmark, K):
    results = benchmark.pedantic(
        _run_reference, args=(_TREES[K],), rounds=3, iterations=1, warmup_rounds=1
    )
    assert len(results) == 3**K + 6**K


@pytest.mark.benchmark(group="noisy-tree2-warm")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_noisy_tree2_warm_pool(benchmark, K):
    """Marginal cost of re-serving all variants from a warmed pool."""
    tree = _TREES[K]
    dev = _device()
    pool = dev.make_tree_cache_pool(tree).warm(_variants(tree))
    data = benchmark(
        lambda: run_tree_fragments(tree, dev, shots=_SHOTS, seed=0, pool=pool)
    )
    assert data.num_variants == 3**K + 6**K
