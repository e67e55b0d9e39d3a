"""Dense density-matrix simulator (the noisy engine).

The state is a rank-2n tensor of shape ``(2,)*2n``: ket axes ``0..n-1``,
bra axes ``n..2n-1``.  A unitary U on qubits ``qs`` is applied as
``U ρ U†`` via two tensordots (U on the ket axes, ``U*`` on the bra axes);
Kraus channels reuse :func:`repro.linalg.channels.apply_channel`.

Memory is ``16 · 4^n`` bytes, fine for the ≤ 8-qubit devices of the paper's
experiments.  The fake-hardware backend interleaves noise channels between
gates according to its :class:`~repro.noise.model.NoiseModel`, and evolves
only the wires a job touches (:func:`evolve_noisy_tensor` takes the ordered
physical wires its tensor axes hold).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.circuits.circuit import Circuit
from repro.config import COMPLEX_DTYPE
from repro.exceptions import SimulationError
from repro.linalg.channels import KrausChannel, apply_channel
from repro.linalg.tensor import apply_matrix_to_axes, flat_from_tensor

def _dm_tensor_from_matrix(mat: np.ndarray, n: int) -> np.ndarray:
    """(2^n, 2^n) little-endian matrix -> rank-2n tensor, ket/bra axis i = qubit i."""
    t = mat.reshape((2,) * (2 * n))
    ket = tuple(range(n - 1, -1, -1))
    bra = tuple(range(2 * n - 1, n - 1, -1))
    return t.transpose(ket + bra)


def _dm_matrix_from_tensor(tensor: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_dm_tensor_from_matrix` (contiguous copy)."""
    ket = tuple(range(n - 1, -1, -1))
    bra = tuple(range(2 * n - 1, n - 1, -1))
    dim = 1 << n
    return np.ascontiguousarray(tensor.transpose(ket + bra).reshape(dim, dim))

__all__ = [
    "DensityMatrix",
    "evolve_noisy_tensor",
    "probabilities_from_tensor",
    "simulate_density",
    "zero_density_tensor",
]


def zero_density_tensor(num_qubits: int) -> np.ndarray:
    """Rank-2n tensor of ``|0..0⟩⟨0..0|`` — the canonical evolution input."""
    t = np.zeros((2,) * (2 * num_qubits), dtype=COMPLEX_DTYPE)
    t[(0,) * (2 * num_qubits)] = 1.0
    return t


def probabilities_from_tensor(
    tensor: np.ndarray, num_qubits: int, clip: bool = True
) -> np.ndarray:
    """Computational-basis probabilities of a rank-2n density tensor.

    Pairs ket axis ``i`` with bra axis ``n + i`` via one einsum — never
    building the flat ``(2^n, 2^n)`` matrix — and returns the little-endian
    real diagonal.  Trailing batch axes are preserved: a tensor of shape
    ``(2,)*2n + (B,)`` yields probabilities of shape ``(B, 2^n)``.

    ``clip=False`` keeps tiny roundoff negatives — for consumers that
    combine several diagonals linearly *before* flooring (the noisy
    fragment cache's response columns), so clipping happens once on the
    combined result exactly as per-variant execution would do it.
    """
    n = num_qubits
    ket = list(range(n))
    batch = list(range(n, tensor.ndim - n))  # labels for trailing batch axes
    diag = np.einsum(tensor, ket + ket + batch, ket + batch)
    probs = diag.real.astype(np.float64)
    if clip:
        # numerical floor: tiny negatives from roundoff
        np.clip(probs, 0.0, None, out=probs)
    if batch:
        flat = probs.reshape((2,) * n + (-1,))
        flat = flat.transpose(tuple(range(n - 1, -1, -1)) + (n,))
        return np.ascontiguousarray(flat.reshape(1 << n, -1).T)
    return flat_from_tensor(probs)


def evolve_noisy_tensor(
    tensor: np.ndarray, circuit: Circuit, noise_model, wires: Sequence[int]
) -> np.ndarray:
    """Push a density tensor over ``wires`` through a circuit with interleaved noise.

    ``tensor`` holds ``m = len(wires)`` qubits: ket axis ``i`` and bra axis
    ``m + i`` are physical wire ``wires[i]``.  The circuit addresses physical
    wires, and every non-barrier gate must act inside ``wires`` — a wire the
    circuit never touches can be left out of the register, which is how
    fragment jobs evolve only their own wires instead of the whole device.
    ``noise_model`` is any object with the
    :meth:`~repro.noise.model.NoiseModel.channels_for` protocol; rules are
    looked up by physical qubit.  Extra trailing axes of ``tensor`` are
    batch dimensions, so a whole bank of initial states can share one noisy
    evolution — the engine behind
    :class:`repro.cutting.noisy_cache.NoisyTreeFragmentSimCache`'s
    ``4^{K_in}`` cut-basis response columns.
    """
    m = len(wires)
    axis = {w: i for i, w in enumerate(wires)}
    for inst in circuit:
        if inst.name == "barrier":
            continue
        mat = inst.gate.matrix()
        ket_axes = [axis[q] for q in inst.qubits]
        bra_axes = [a + m for a in ket_axes]
        tensor = apply_matrix_to_axes(tensor, mat, ket_axes)
        tensor = apply_matrix_to_axes(tensor, mat.conj(), bra_axes)
        for channel, qubits in noise_model.channels_for(inst.name, inst.qubits):
            tensor = apply_channel(tensor, channel, [axis[q] for q in qubits], m)
    return tensor


class DensityMatrix:
    """Mutable n-qubit mixed state."""

    __slots__ = ("num_qubits", "_tensor")

    def __init__(self, num_qubits: int, data: np.ndarray | None = None) -> None:
        self.num_qubits = int(num_qubits)
        dim = 1 << num_qubits
        if data is None:
            t = np.zeros((dim, dim), dtype=COMPLEX_DTYPE)
            t[0, 0] = 1.0
            # |0..0><0..0| is invariant under the endianness transpose.
            self._tensor = t.reshape((2,) * (2 * num_qubits))
        else:
            data = np.asarray(data, dtype=COMPLEX_DTYPE)
            if data.ndim == 1:
                if data.size != dim:
                    raise SimulationError("statevector length mismatch")
                mat = np.outer(data, data.conj())
            else:
                if data.shape != (dim, dim):
                    raise SimulationError(
                        f"density matrix shape {data.shape} mismatch for "
                        f"{num_qubits} qubits"
                    )
                mat = data
            self._tensor = _dm_tensor_from_matrix(mat, num_qubits).copy()

    # ------------------------------------------------------------------
    @classmethod
    def from_statevector(cls, vec: np.ndarray) -> "DensityMatrix":
        n = int(np.log2(vec.size))
        return cls(n, np.asarray(vec))

    def copy(self) -> "DensityMatrix":
        out = DensityMatrix.__new__(DensityMatrix)
        out.num_qubits = self.num_qubits
        out._tensor = self._tensor.copy()
        return out

    # ------------------------------------------------------------------
    def apply_matrix(self, matrix: np.ndarray, qubits: Sequence[int]) -> None:
        """Conjugate by a unitary on the listed qubits: ``ρ → U ρ U†``."""
        n = self.num_qubits
        ket_axes = list(qubits)
        bra_axes = [q + n for q in qubits]
        t = apply_matrix_to_axes(self._tensor, matrix, ket_axes)
        self._tensor = apply_matrix_to_axes(t, matrix.conj(), bra_axes)

    def apply_channel(self, channel: KrausChannel, qubits: Sequence[int]) -> None:
        self._tensor = apply_channel(self._tensor, channel, qubits, self.num_qubits)

    def apply_instruction(self, inst) -> None:
        if inst.name == "barrier":
            return
        self.apply_matrix(inst.gate.matrix(), inst.qubits)

    def apply_circuit(self, circuit: Circuit) -> "DensityMatrix":
        if circuit.num_qubits != self.num_qubits:
            raise SimulationError("circuit width mismatch")
        for inst in circuit:
            self.apply_instruction(inst)
        return self

    # ------------------------------------------------------------------
    def matrix(self) -> np.ndarray:
        """Flat ``(2^n, 2^n)`` little-endian copy of the state."""
        return _dm_matrix_from_tensor(self._tensor, self.num_qubits)

    def probabilities(self) -> np.ndarray:
        """Diagonal of ρ — computational-basis outcome probabilities.

        Read directly off the rank-2n tensor by pairing each ket axis with
        its bra axis, so no ``(2^n, 2^n)`` matrix is materialised (the old
        path paid a transposing copy of the whole state just to look at its
        diagonal).
        """
        return probabilities_from_tensor(self._tensor, self.num_qubits)

    def trace(self) -> float:
        return float(self.probabilities().sum())

    def expectation(self, matrix: np.ndarray, qubits: Sequence[int]) -> complex:
        """``tr(M ρ)`` for an operator on a subset of qubits."""
        n = self.num_qubits
        work = apply_matrix_to_axes(self._tensor, matrix, list(qubits))
        ket = list(range(n))
        return complex(np.einsum(work, ket + ket))

    def purity(self) -> float:
        m = self.matrix()
        return float(np.real(np.einsum("ij,ji->", m, m)))


def simulate_density(
    circuit: Circuit, initial: np.ndarray | None = None
) -> DensityMatrix:
    """Run ``circuit`` noiselessly on a density matrix (for cross-checks)."""
    dm = (
        DensityMatrix(circuit.num_qubits)
        if initial is None
        else DensityMatrix(circuit.num_qubits, initial)
    )
    return dm.apply_circuit(circuit)
