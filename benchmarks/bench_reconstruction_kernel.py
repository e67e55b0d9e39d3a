"""Microbenchmarks of the classical reconstruction kernels.

Separates the two stages of Fig. 4's classical cost on the paper's single
cut (the 2-node fragment tree): building each fragment's reduced tensor
(the measuring root's Â and the preparing leaf's B̂) and the whole
reconstruction including the contraction, across cut counts — useful for
profiling regressions in the hot path (HPC guide: measure, don't guess).
The brute-force row loops the kernels are validated against live with the
tests (``tests/oracles.py``).  Baselines: see ``benchmarks/compare.py``
(``python benchmarks/compare.py --write-baseline`` refreshes
``benchmarks/BENCH_reconstruction.json``).
"""

import numpy as np
import pytest

from repro.cutting.execution import exact_tree_data
from repro.cutting.reconstruction import (
    build_tree_fragment_tensor,
    reconstruct_tree_distribution,
)
from repro.cutting.tree import partition_tree
from repro.harness.scaling import multi_cut_golden_circuit

_CASES = {}
for K in (1, 2, 3):
    qc, spec = multi_cut_golden_circuit(K, extra_up=2, extra_down=2, depth=2, seed=900 + K)
    _CASES[K] = exact_tree_data(partition_tree(qc, [spec]))


@pytest.mark.benchmark(group="kernel-tensors")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_build_measuring_tensor(benchmark, K):
    A, _, (rows,) = benchmark(build_tree_fragment_tensor, _CASES[K], 0)
    assert len(rows) == 4**K


@pytest.mark.benchmark(group="kernel-tensors")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_build_preparing_tensor(benchmark, K):
    B, rows, _ = benchmark(build_tree_fragment_tensor, _CASES[K], 1)
    assert B.shape[0] == 4**K


@pytest.mark.benchmark(group="kernel-full")
@pytest.mark.parametrize("K", [1, 2, 3])
def test_full_tree_reconstruction(benchmark, K):
    p = benchmark(reconstruct_tree_distribution, _CASES[K], postprocess="raw")
    assert np.isclose(p.sum(), 1.0, atol=1e-8)


@pytest.mark.benchmark(group="kernel-sampling")
def test_multinomial_sampling(benchmark):
    from repro.sim.sampler import sample_counts

    rng = np.random.default_rng(0)
    probs = rng.random(1 << 7)
    probs /= probs.sum()
    benchmark(sample_counts, probs, 10_000, 1)


@pytest.mark.benchmark(group="kernel-simulators")
def test_statevector_7q(benchmark):
    from repro.circuits import random_circuit
    from repro.sim import simulate_statevector

    qc = random_circuit(7, 10, seed=3)
    benchmark(simulate_statevector, qc)


@pytest.mark.benchmark(group="kernel-simulators")
def test_noisy_density_5q(benchmark):
    from repro.backends import fake_5q_device
    from repro.circuits import random_circuit

    dev = fake_5q_device()
    qc = random_circuit(5, 6, seed=4)
    benchmark(lambda: dev.run_one(qc, shots=100, seed=0))
