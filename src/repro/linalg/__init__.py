"""Dense linear-algebra substrate: Pauli algebra, state helpers, channels."""

from repro.linalg.paulis import (
    PAULI_EIGENBASES,
    PAULI_LABELS,
    PAULI_MATRICES,
    PauliString,
    pauli_basis_change,
    pauli_eigenpairs,
    pauli_matrix,
)
from repro.linalg.states import (
    bloch_vector,
    fidelity,
    is_density_matrix,
    ket,
    partial_trace,
    purity,
    state_to_density,
)
from repro.linalg.tensor import (
    apply_matrix_to_axes,
    kron_all,
    operator_on_qubits,
)
from repro.linalg.channels import (
    KrausChannel,
    apply_channel,
    is_cptp,
)

__all__ = [
    "PAULI_EIGENBASES",
    "PAULI_LABELS",
    "PAULI_MATRICES",
    "PauliString",
    "pauli_basis_change",
    "pauli_eigenpairs",
    "pauli_matrix",
    "bloch_vector",
    "fidelity",
    "is_density_matrix",
    "ket",
    "partial_trace",
    "purity",
    "state_to_density",
    "apply_matrix_to_axes",
    "kron_all",
    "operator_on_qubits",
    "KrausChannel",
    "apply_channel",
    "is_cptp",
]
