"""Simulators: statevector, density matrix, unitary extraction, sampling."""

from repro.sim.statevector import (
    Statevector,
    apply_circuit_to_tensor,
    simulate_statevector,
)
from repro.sim.density import DensityMatrix, simulate_density
from repro.sim.unitary import circuit_unitary
from repro.sim.sampler import (
    Counts,
    counts_to_probs,
    probs_to_counts,
    sample_counts,
    sample_sparse_counts,
)
from repro.sim.expectation import expectation_from_probs, expectation_of_observable
from repro.sim.trajectories import simulate_trajectory, trajectory_probabilities

__all__ = [
    "Statevector",
    "apply_circuit_to_tensor",
    "simulate_statevector",
    "DensityMatrix",
    "simulate_density",
    "circuit_unitary",
    "Counts",
    "sample_counts",
    "sample_sparse_counts",
    "counts_to_probs",
    "probs_to_counts",
    "expectation_from_probs",
    "expectation_of_observable",
    "simulate_trajectory",
    "trajectory_probabilities",
]
