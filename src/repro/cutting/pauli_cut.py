"""Cutting with general (non-diagonal) Pauli observables — paper Eq. 14.

The paper's experiments use computational-basis projectors, but Eq. 14 is
stated for any observable that splits across the cut, noting that
"expansions using Pauli strings would yield a linear combination of
operators that are qubit-wise separable".  This module implements that
general case on the one cutting engine:

* a Pauli string ``O`` is measured by appending basis-change gates to the
  *uncut* circuit's output wires (X → H, Y → H·S†) — exactly the trick
  hardware uses.  The rotations come after every cut point, so they land
  on whichever fragment ends each wire and never touch the tomography
  protocol on cut wires; the observable is then diagonal and the run is an
  ordinary :func:`~repro.core.pipeline.cut_and_run_tree` on the 2-node
  tree, read out with ``expectation(diagonal)``;
* a Pauli *sum* (Hamiltonian) is evaluated group-wise: qubit-wise-commuting
  terms share one set of fragment executions
  (:meth:`~repro.observables.pauli_obs.PauliSumObservable.measurement_groups`),
  so the execution cost is ``groups × variants``, not ``terms × variants``.

Golden cutting composes transparently: Definition 1 depends on the
measuring fragment's observable factor, so the analytic finder simply runs
on the *rotated* circuit's fragments.
"""

from __future__ import annotations

import numpy as np

from repro.backends.base import Backend
from repro.circuits.circuit import Circuit
from repro.cutting.cut import CutSpec
from repro.exceptions import CutError, ReproError
from repro.linalg.paulis import PauliString
from repro.observables.pauli_obs import PauliSumObservable
from repro.utils.rng import as_generator, derive_rng

__all__ = [
    "rotated_circuit",
    "observable_diagonal",
    "cut_pauli_expectation",
    "cut_pauli_sum_expectation",
]

_ROTATIONS: dict[str, tuple[str, ...]] = {
    # circuit-order gate sequences realising the basis change V with
    # V M V† = Z:  X -> H;  Y -> S† then H.
    "I": (),
    "Z": (),
    "X": ("h",),
    "Y": ("sdg", "h"),
}


def rotated_circuit(circuit: Circuit, observable: PauliString) -> Circuit:
    """``circuit`` with its outputs rotated into ``observable``'s basis.

    Terminal single-qubit rotations are appended per wire, so every
    existing instruction index — and therefore every
    :class:`~repro.cutting.cut.CutSpec` of ``circuit`` — stays valid.
    """
    if observable.num_qubits != circuit.num_qubits:
        raise ReproError(
            f"observable width {observable.num_qubits} != circuit width "
            f"{circuit.num_qubits}"
        )
    out = circuit.copy()
    for q, label in enumerate(observable.labels):
        for g in _ROTATIONS[label]:
            out.add_gate(g, (q,))
    return out


def observable_diagonal(observable: PauliString) -> np.ndarray:
    """Post-rotation diagonal of ``observable`` over the full register.

    After the basis change every non-identity label contributes a Z, so the
    diagonal is that of the ``{I,Z}`` reduction times the string's scalar
    phase (which must be real for a Hermitian expectation).
    """
    if abs(observable.phase.imag) > 1e-12:
        raise ReproError("observable phase must be real for an expectation")
    reduced = PauliString(
        tuple("I" if c == "I" else "Z" for c in observable.labels),
        phase=float(observable.phase.real),
    )
    return reduced.diagonal().real


def _run(circuit, cuts, backend, shots, golden, seed):
    from repro.core.pipeline import cut_and_run_tree

    # raw quasi-probabilities keep the expectation estimator unbiased
    return cut_and_run_tree(
        circuit,
        backend,
        [cuts],
        shots=shots,
        golden=golden,
        postprocess="raw",
        seed=seed,
    )


def cut_pauli_expectation(
    circuit: Circuit,
    cuts: CutSpec,
    backend: Backend,
    observable: PauliString,
    shots: int = 1000,
    golden: str = "off",
    seed: "int | np.random.Generator | None" = None,
) -> float:
    """⟨O⟩ of ``circuit`` for one Pauli string, evaluated via cutting.

    ``golden``: ``"off"`` or ``"analytic"`` (the finder runs on the rotated
    circuit, since goldenness is observable-dependent).
    """
    if golden not in ("off", "analytic"):
        raise CutError('golden must be "off" or "analytic" here')
    run = _run(
        rotated_circuit(circuit, observable), cuts, backend, shots, golden, seed
    )
    return run.expectation(observable_diagonal(observable))


def cut_pauli_sum_expectation(
    circuit: Circuit,
    cuts: CutSpec,
    backend: Backend,
    hamiltonian: PauliSumObservable,
    shots: int = 1000,
    seed: "int | np.random.Generator | None" = None,
) -> tuple[float, dict]:
    """⟨H⟩ of a Pauli sum via cutting, sharing runs across commuting terms.

    Returns ``(energy, info)`` where ``info`` reports the measurement-group
    structure and total fragment executions.  Each qubit-wise-commuting
    group is executed once (standard protocol; golden reduction per group
    could be layered on identically to :func:`cut_pauli_expectation`).
    """
    if hamiltonian.num_qubits != circuit.num_qubits:
        raise ReproError("hamiltonian width mismatch")
    rng = as_generator(seed)
    groups = hamiltonian.measurement_groups()
    energy = 0.0
    executions = 0
    for gi, members in enumerate(groups):
        # group basis: the union of the members' non-I labels
        basis = ["I"] * hamiltonian.num_qubits
        for idx in members:
            for q, c in enumerate(hamiltonian.terms[idx][1].labels):
                if c != "I":
                    basis[q] = c
        run = _run(
            rotated_circuit(circuit, PauliString(tuple(basis))),
            cuts,
            backend,
            shots,
            "off",
            derive_rng(rng, gi),
        )
        executions += run.total_executions
        for idx in members:
            coeff, term = hamiltonian.terms[idx]
            energy += coeff * run.expectation(observable_diagonal(term))
    info = {
        "num_groups": len(groups),
        "num_terms": hamiltonian.num_terms,
        "total_executions": executions,
    }
    return energy, info
