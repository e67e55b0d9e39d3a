"""Property-based tests (hypothesis) for the package's core invariants.

The headline property: **wire-cut reconstruction is exact** — for random
circuits, random cut positions and exact fragment data, the reconstructed
distribution equals the uncut simulation.  Everything else (simulator
unitarity, Pauli algebra closure, transpile equivalence, projection
geometry) guards the layers below it.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.circuits import Circuit, random_circuit
from repro.cutting.reconstruction import project_to_simplex
from repro.linalg.paulis import PauliString
from repro.sim import circuit_unitary, simulate_statevector
from repro.transpile import decompose_to_basis

from tests.helpers import (
    exact_pair_probs,
    pair_tree,
    phase_equal,
    root_golden_bases,
    two_block_circuit,
)

_slow = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------------------
# the central invariant
# ---------------------------------------------------------------------------


@_slow
@given(seed=st.integers(0, 10_000), depth=st.integers(1, 4))
def test_cut_reconstruction_exact_single_cut(seed, depth):
    qc, spec = two_block_circuit(4, [0, 1], [1, 2, 3], depth=depth, seed=seed)
    p = exact_pair_probs(qc, spec)
    truth = simulate_statevector(qc).probabilities()
    np.testing.assert_allclose(p, truth, atol=1e-8)


@_slow
@given(seed=st.integers(0, 10_000))
def test_cut_reconstruction_exact_two_cuts(seed):
    qc, spec = two_block_circuit(4, [0, 1, 2], [1, 2, 3], depth=2, seed=seed)
    p = exact_pair_probs(qc, spec)
    truth = simulate_statevector(qc).probabilities()
    np.testing.assert_allclose(p, truth, atol=1e-8)


@_slow
@given(seed=st.integers(0, 10_000))
def test_golden_neglect_never_changes_exact_result(seed):
    """Whatever the analytic finder marks golden can be dropped for free."""
    qc, spec = two_block_circuit(
        4, [0, 1], [1, 2, 3], depth=2, seed=seed, real_upstream=True
    )
    found = root_golden_bases(pair_tree(qc, spec))
    golden = {k: bs[0] for k, bs in found.items() if bs}
    if not golden:
        return  # nothing to neglect for this draw
    p = exact_pair_probs(qc, spec, golden=golden)
    truth = simulate_statevector(qc).probabilities()
    np.testing.assert_allclose(p, truth, atol=1e-8)


# ---------------------------------------------------------------------------
# simulator invariants
# ---------------------------------------------------------------------------


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(1, 4), depth=st.integers(1, 5))
def test_simulator_preserves_norm(seed, n, depth):
    qc = random_circuit(n, depth, seed=seed)
    probs = simulate_statevector(qc).probabilities()
    assert np.isclose(probs.sum(), 1.0, atol=1e-10)
    assert np.all(probs >= -1e-12)


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_circuit_unitary_is_unitary(seed, n):
    qc = random_circuit(n, 3, seed=seed)
    u = circuit_unitary(qc)
    np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << n), atol=1e-10)


@_slow
@given(seed=st.integers(0, 10_000), n=st.integers(1, 3))
def test_inverse_circuit_inverts(seed, n):
    qc = random_circuit(n, 3, seed=seed)
    u = circuit_unitary(qc)
    ui = circuit_unitary(qc.inverse())
    np.testing.assert_allclose(ui @ u, np.eye(1 << n), atol=1e-10)


@_slow
@given(seed=st.integers(0, 10_000))
def test_transpile_preserves_semantics(seed):
    qc = random_circuit(3, 3, seed=seed)
    dec = decompose_to_basis(qc)
    assert phase_equal(circuit_unitary(dec), circuit_unitary(qc), tol=1e-7)


# ---------------------------------------------------------------------------
# algebraic invariants
# ---------------------------------------------------------------------------

_pauli_label = st.text(alphabet="IXYZ", min_size=1, max_size=4)


@given(a=_pauli_label, b=_pauli_label)
def test_pauli_product_matches_matrices(a, b):
    if len(a) != len(b):
        return
    pa, pb = PauliString.from_label(a), PauliString.from_label(b)
    np.testing.assert_allclose(
        (pa * pb).to_matrix(), pa.to_matrix() @ pb.to_matrix(), atol=1e-10
    )


@given(a=_pauli_label, b=_pauli_label)
def test_pauli_commute_or_anticommute(a, b):
    if len(a) != len(b):
        return
    pa, pb = PauliString.from_label(a), PauliString.from_label(b)
    ab = pa.to_matrix() @ pb.to_matrix()
    ba = pb.to_matrix() @ pa.to_matrix()
    if pa.commutes_with(pb):
        np.testing.assert_allclose(ab, ba, atol=1e-10)
    else:
        np.testing.assert_allclose(ab, -ba, atol=1e-10)


@given(
    v=st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2,
        max_size=32,
    )
)
def test_simplex_projection_feasible(v):
    p = project_to_simplex(np.array(v))
    assert np.isclose(p.sum(), 1.0, atol=1e-9)
    assert np.all(p >= -1e-12)


@given(
    v=st.lists(
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        min_size=2,
        max_size=8,
    ),
    seed=st.integers(0, 1000),
)
def test_simplex_projection_idempotent(v, seed):
    p = project_to_simplex(np.array(v))
    np.testing.assert_allclose(project_to_simplex(p), p, atol=1e-9)
