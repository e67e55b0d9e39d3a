"""repro — reproduction of *Efficient Quantum Circuit Cutting by Neglecting
Basis Elements* (Chen, Hansen et al., IPPS 2023, arXiv:2304.04093).

The package implements Pauli-basis wire cutting from scratch (circuit IR,
statevector/density simulators, noisy fake hardware) plus the paper's
contribution: **golden cutting points**, cut locations where a basis element
provably carries no information and can be neglected — reducing
reconstruction terms from ``4^K`` to ``4^{K_r} 3^{K_g}`` and circuit
executions from ``O(6^K)`` to ``O(6^{K_r} 4^{K_g})``.

Quickstart
----------
>>> from repro import golden_ansatz, cut_and_run, IdealBackend
>>> spec = golden_ansatz(5, seed=1)                      # paper Fig. 2 family
>>> backend = IdealBackend()
>>> result = cut_and_run(spec.circuit, backend, cuts=spec.cut_spec,
...                      shots=1000, golden="analytic", seed=1)
>>> result.golden_used
{0: 'Y'}

See ``examples/`` for runnable walkthroughs and ``benchmarks/`` for the
reproduction of every figure in the paper.
"""

from repro.backends import (
    Backend,
    DeviceTimingModel,
    ExecutionResult,
    FakeHardwareBackend,
    IdealBackend,
    fake_5q_device,
    fake_7q_device,
    fake_device,
)
from repro.circuits import (
    Circuit,
    draw,
    ghz_circuit,
    qaoa_maxcut_circuit,
    qft_circuit,
    random_circuit,
    random_real_circuit,
    real_amplitudes_ansatz,
)
from repro.core import (
    CutRunResult,
    GoldenDetectionResult,
    cost_report,
    cut_and_run,
    cut_and_run_tree,
    detect_tree_golden_bases,
    find_tree_golden_bases_analytic,
    golden_ansatz,
    predicted_speedup,
    three_qubit_example,
)
from repro.cutting import (
    CutPoint,
    CutSearchResult,
    CutSpec,
    FragmentChain,
    FragmentPair,
    FragmentTree,
    bipartition,
    find_cut_specs,
    find_cuts,
    partition_chain,
    partition_tree,
    reconstruct_chain_distribution,
    reconstruct_tree_distribution,
    run_chain_fragments,
    run_tree_fragments,
)
from repro.cutting.execution import (
    exact_chain_data,
    exact_tree_data,
)
from repro.exceptions import ReproError
from repro.metrics import total_variation, weighted_distance
from repro.observables import BitstringProjector, DiagonalObservable
from repro.sim import simulate_statevector

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # backends
    "Backend",
    "ExecutionResult",
    "IdealBackend",
    "FakeHardwareBackend",
    "DeviceTimingModel",
    "fake_5q_device",
    "fake_7q_device",
    "fake_device",
    # circuits
    "Circuit",
    "draw",
    "ghz_circuit",
    "qft_circuit",
    "random_circuit",
    "random_real_circuit",
    "real_amplitudes_ansatz",
    "qaoa_maxcut_circuit",
    # core (the paper's contribution)
    "golden_ansatz",
    "three_qubit_example",
    "cut_and_run",
    "cut_and_run_tree",
    "CutRunResult",
    "find_tree_golden_bases_analytic",
    "detect_tree_golden_bases",
    "GoldenDetectionResult",
    "cost_report",
    "predicted_speedup",
    # cutting baseline
    "CutPoint",
    "CutSpec",
    "CutSearchResult",
    "find_cut_specs",
    "FragmentPair",
    "FragmentChain",
    "FragmentTree",
    "bipartition",
    "partition_chain",
    "partition_tree",
    "find_cuts",
    "run_chain_fragments",
    "run_tree_fragments",
    "exact_chain_data",
    "exact_tree_data",
    "reconstruct_chain_distribution",
    "reconstruct_tree_distribution",
    # observables / metrics / sim
    "BitstringProjector",
    "DiagonalObservable",
    "weighted_distance",
    "total_variation",
    "simulate_statevector",
    "ReproError",
]
