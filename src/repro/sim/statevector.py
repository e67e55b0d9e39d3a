"""Dense statevector simulator.

The state of ``n`` qubits is a ``complex128`` ndarray of shape ``(2,)*n``
(axis ``i`` = qubit ``i``).  Gate application is a tensordot against the
targeted axes — the k-qubit gate costs ``O(2^n · 2^k)`` and never builds a
``2^n × 2^n`` matrix.  This is the reference "Aer simulator" stand-in of the
reproduction (DESIGN.md §2) and also the exact engine behind the analytic
golden-cut finder.

Hot-path engineering (shared with :mod:`repro.cutting.cache`):

* :func:`apply_circuit_to_tensor` fuses runs of single-qubit gates into one
  2×2 product per qubit before touching the state, and accepts tensors with
  trailing batch axes, so a whole bank of initial states can be pushed
  through a circuit in one pass;
* gate matrices come from the read-only cache in
  :mod:`repro.circuits.gates`;
* :meth:`Statevector.probabilities` squares amplitudes in tensor layout and
  pays a single copy for the little-endian flattening instead of a complex
  flat round-trip.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.config import ATOL, COMPLEX_DTYPE
from repro.exceptions import SimulationError
from repro.linalg.tensor import (
    apply_matrix_to_axes,
    flat_from_tensor,
    tensor_from_flat,
)

__all__ = ["Statevector", "apply_circuit_to_tensor", "simulate_statevector"]


def apply_circuit_to_tensor(
    tensor: np.ndarray, circuit: Circuit, fuse: bool = True
) -> np.ndarray:
    """Apply a circuit to an axis-i=qubit-i tensor, fusing 1q-gate runs.

    Axes beyond the circuit's qubits are batch dimensions: a tensor of shape
    ``(2,)*n + (B,)`` simulates ``B`` initial states at once (the downstream
    preparation-basis bank of
    :class:`repro.cutting.cache.TreeFragmentSimCache`).

    With ``fuse=True`` consecutive single-qubit gates on the same wire are
    multiplied into one 2×2 matrix before being applied; single-qubit gates
    on *different* wires commute, so deferring them past each other is exact
    as long as every pending matrix is flushed before a multi-qubit gate
    touches its wire.
    """
    pending: dict[int, np.ndarray] = {}
    for inst in circuit:
        if inst.name == "barrier":
            continue
        qubits = inst.qubits
        if fuse and len(qubits) == 1:
            q = qubits[0]
            m = inst.gate.matrix()
            prev = pending.get(q)
            pending[q] = m if prev is None else m @ prev
            continue
        for q in qubits:
            m = pending.pop(q, None)
            if m is not None:
                tensor = apply_matrix_to_axes(tensor, m, (q,))
        tensor = apply_matrix_to_axes(tensor, inst.gate.matrix(), inst.qubits)
    for q, m in pending.items():
        tensor = apply_matrix_to_axes(tensor, m, (q,))
    return tensor


class Statevector:
    """Mutable n-qubit pure state with vectorised gate application."""

    __slots__ = ("num_qubits", "_tensor")

    def __init__(self, num_qubits: int, data: np.ndarray | None = None) -> None:
        self.num_qubits = int(num_qubits)
        if data is None:
            t = np.zeros((2,) * num_qubits, dtype=COMPLEX_DTYPE)
            t[(0,) * num_qubits] = 1.0
            self._tensor = t
        else:
            data = np.asarray(data, dtype=COMPLEX_DTYPE)
            if data.size != 1 << num_qubits:
                raise SimulationError(
                    f"data size {data.size} mismatch for {num_qubits} qubits"
                )
            self._tensor = tensor_from_flat(data.reshape(-1), num_qubits).copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "Statevector":
        n = int(np.log2(vec.size))
        if vec.size != 1 << n:
            raise SimulationError("vector length is not a power of two")
        return cls(n, vec)

    def copy(self) -> "Statevector":
        out = Statevector.__new__(Statevector)
        out.num_qubits = self.num_qubits
        out._tensor = self._tensor.copy()
        return out

    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Apply a ``2^k x 2^k`` unitary to the listed qubits, in place."""
        self._tensor = apply_matrix_to_axes(self._tensor, matrix, list(qubits))

    def apply_instruction(self, inst) -> None:
        if inst.name == "barrier":
            return
        self.apply_matrix(inst.gate.matrix(), inst.qubits)

    def apply_circuit(self, circuit: Circuit, fuse: bool = True) -> "Statevector":
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError(
                f"circuit width {circuit.num_qubits} != state width {self.num_qubits}"
            )
        self._tensor = apply_circuit_to_tensor(self._tensor, circuit, fuse=fuse)
        return self

    # ------------------------------------------------------------------
    @property
    def tensor(self) -> np.ndarray:
        """The internal axis-i=qubit-i amplitude tensor (not a copy).

        Exposed for zero-copy consumers (the fragment-simulation cache);
        treat it as read-only.
        """
        return self._tensor

    def vector(self) -> np.ndarray:
        """Flat ``(2^n,)`` little-endian copy of the amplitudes."""
        return flat_from_tensor(self._tensor)

    def probabilities(self) -> np.ndarray:
        """Born-rule probabilities over the ``2^n`` basis states.

        Computed in tensor layout (one real array, no complex flat copy),
        then flattened little-endian with a single transpose-copy.
        """
        t = self._tensor
        p = np.square(t.real) + np.square(t.imag)
        return flat_from_tensor(p)

    def norm(self) -> float:
        return float(np.sqrt(self.probabilities().sum()))

    def normalize(self) -> "Statevector":
        n = self.norm()
        if n < ATOL:
            raise SimulationError("cannot normalise a zero state")
        self._tensor /= n
        return self

    def is_real(self, atol: float = 1e-9) -> bool:
        """True iff every amplitude is real up to a global phase.

        Real states are the precondition for Y-golden cuts; the detector
        uses this as a fast structural check before the exact test.
        """
        flat = self.vector()
        k = int(np.argmax(np.abs(flat)))
        phase = flat[k] / abs(flat[k])
        return bool(np.max(np.abs((flat / phase).imag)) < atol)

    def expectation(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """``⟨ψ|M|ψ⟩`` for an operator on a subset of qubits."""
        bra = self._tensor.conj()
        ket = apply_matrix_to_axes(self._tensor, matrix, list(qubits))
        return complex(np.tensordot(bra, ket, axes=self.num_qubits))

    def project(self, qubit: int, bit: int, renormalize: bool = False) -> float:
        """Project ``qubit`` onto ``|bit⟩`` in place; return outcome probability."""
        idx = [slice(None)] * self.num_qubits
        idx[qubit] = 1 - bit
        t = self._tensor
        keep = t.copy()
        keep[tuple(idx)] = 0.0
        prob = float(np.vdot(keep, keep).real)
        self._tensor = keep
        if renormalize:
            if prob < ATOL:
                raise SimulationError("projection onto zero-probability branch")
            self._tensor /= np.sqrt(prob)
        return prob


def simulate_statevector(
    circuit: Circuit, initial: np.ndarray | None = None
) -> Statevector:
    """Run ``circuit`` from ``|0..0⟩`` (or ``initial``) and return the state."""
    sv = (
        Statevector(circuit.num_qubits)
        if initial is None
        else Statevector(circuit.num_qubits, initial)
    )
    return sv.apply_circuit(circuit)
