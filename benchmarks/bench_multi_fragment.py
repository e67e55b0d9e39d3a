"""Benchmarks of multi-fragment chain execution and reconstruction.

Measures the cost of producing and reconstructing a genuine **3-fragment
chain** result set (two cut groups, K = 2 cuts each — the interior fragment
alone has ``6² · 3² = 324`` combined variants) three ways:

* ``chain-noisy-cached`` — the production fast path:
  :meth:`~repro.backends.fake_hardware.FakeHardwareBackend.run_chain_variants`
  served by a fresh :class:`~repro.cutting.cache.ChainCachePool` (one
  transpile per fragment body, ``4^{K_prev}`` body evolutions + ``3^{K}``
  batched rotation passes per fragment);
* ``chain-noisy-reference`` — the pre-cache semantics: every combined
  ``(inits, setting)`` variant circuit transpiled and density-evolved from
  scratch;
* ``chain-noisy-warm`` — marginal cost of re-serving every variant from a
  warmed pool (the repeat-consumer path inside ``cut_and_run_chain``).

Plus the classical side:

* ``chain-reconstruction`` — the generalised einsum contraction over the
  three per-fragment tensors vs the brute-force row-loop over the full
  basis product across both cut groups (``16 · 16`` rows).

Baselines live in ``benchmarks/BENCH_multi_fragment.json``; refresh with
``python benchmarks/compare.py --write-baseline --suite multi_fragment``
and compare a working tree against them with
``python benchmarks/compare.py``.
"""

import pytest

from repro.backends.base import Backend
from repro.backends.fake_hardware import FakeHardwareBackend
from repro.cutting.chain import partition_chain
from repro.cutting.execution import exact_chain_data, run_chain_fragments
from repro.cutting.reconstruction import reconstruct_chain_distribution
from repro.cutting.variants import chain_variant_tuples
from repro.harness.scaling import chain_cut_circuit
from repro.noise.kraus import (
    amplitude_damping,
    depolarizing,
    two_qubit_depolarizing,
)
from repro.noise.model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.transpile.coupling import CouplingMap

from tests.oracles import reconstruct_chain_distribution_reference

_SHOTS = 1000
_CUTS_PER_GROUP = 2


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
        CouplingMap.linear(5), _noise(5), name="bench_chain_5q"
    )


def _chain():
    qc, specs = chain_cut_circuit(
        3, _CUTS_PER_GROUP, fresh_per_fragment=2, depth=2, seed=910
    )
    return partition_chain(qc, specs)


_CHAIN = _chain()
_VARIANTS = [
    chain_variant_tuples(_CHAIN, i) for i in range(_CHAIN.num_fragments)
]
_NUM_VARIANTS = sum(len(v) for v in _VARIANTS)


def _run_cached():
    """Fast path: run_chain_fragments + fresh ChainCachePool (cold)."""
    dev = _device()
    pool = dev.make_chain_cache_pool(_CHAIN)
    return run_chain_fragments(_CHAIN, dev, shots=_SHOTS, seed=0, pool=pool)


def _run_reference():
    """Pre-cache semantics: every combined variant through ``_execute``."""
    dev = _device()
    out = []
    for i, combos in enumerate(_VARIANTS):
        out.extend(
            Backend.run_chain_variants(
                dev, _CHAIN, i, combos, shots=_SHOTS, seed=0
            )
        )
    return out


@pytest.mark.benchmark(group="chain-noisy-cached")
def test_chain_noisy_cached(benchmark):
    data = benchmark(_run_cached)
    assert data.num_variants == _NUM_VARIANTS


@pytest.mark.benchmark(group="chain-noisy-reference")
def test_chain_noisy_reference(benchmark):
    results = benchmark.pedantic(
        _run_reference, rounds=2, iterations=1, warmup_rounds=1
    )
    assert len(results) == _NUM_VARIANTS


@pytest.mark.benchmark(group="chain-noisy-warm")
def test_chain_noisy_warm_pool(benchmark):
    """Marginal cost of re-serving every variant from a warmed pool."""
    dev = _device()
    pool = dev.make_chain_cache_pool(_CHAIN).warm(_VARIANTS)
    data = benchmark(
        lambda: run_chain_fragments(
            _CHAIN, dev, shots=_SHOTS, seed=0, pool=pool
        )
    )
    assert data.num_variants == _NUM_VARIANTS


_EXACT_DATA = exact_chain_data(_CHAIN)


@pytest.mark.benchmark(group="chain-reconstruction")
def test_chain_reconstruction_einsum(benchmark):
    p = benchmark(
        lambda: reconstruct_chain_distribution(_EXACT_DATA, postprocess="raw")
    )
    assert p.size == 1 << len(_CHAIN.output_order())


@pytest.mark.benchmark(group="chain-reconstruction")
def test_chain_reconstruction_reference(benchmark):
    p = benchmark(
        lambda: reconstruct_chain_distribution_reference(_EXACT_DATA)
    )
    assert p.size == 1 << len(_CHAIN.output_order())
