"""Tensor kernels shared by the simulators.

The statevector and density-matrix simulators represent n-qubit objects as
rank-n (rank-2n) arrays of shape ``(2,)*n`` with **axis i = qubit i**.
Applying a k-qubit gate is a tensordot over the targeted axes followed by a
``moveaxis`` — no data-sized Python loops and no materialisation of
``2^n x 2^n`` matrices, per the HPC guide ("vectorise; use views, not
copies").

Endianness
----------
The package's *flat* convention is little-endian (qubit 0 = least-significant
bit of a basis index, see :mod:`repro.utils.bits`), while NumPy's C-order
``reshape`` makes axis 0 the *most* significant position.  The two explicit
converters below are therefore the only sanctioned flat↔tensor bridges:

* :func:`tensor_from_flat` — flat vector → rank-n tensor with axis i = qubit i,
* :func:`flat_from_tensor` — the inverse.

Gate matrices index their rows/columns little-endian in the *listed qubit
order* (first listed qubit = least-significant bit), matching
:mod:`repro.circuits.gates`.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from repro.config import COMPLEX_DTYPE
from repro.exceptions import SimulationError

__all__ = [
    "apply_matrix_to_axes",
    "flat_from_tensor",
    "kron_all",
    "operator_on_qubits",
    "tensor_from_flat",
]


def tensor_from_flat(vec: np.ndarray, num_qubits: int) -> np.ndarray:
    """Reshape a little-endian flat vector into axis-i=qubit-i tensor form.

    Returns a view when possible (transpose of a reshape).
    """
    if vec.size != 1 << num_qubits:
        raise SimulationError(f"vector size {vec.size} != 2^{num_qubits}")
    return vec.reshape((2,) * num_qubits).transpose(
        tuple(range(num_qubits - 1, -1, -1))
    )


def flat_from_tensor(tensor: np.ndarray) -> np.ndarray:
    """Flatten an axis-i=qubit-i tensor back to a little-endian vector."""
    n = tensor.ndim
    return tensor.transpose(tuple(range(n - 1, -1, -1))).reshape(-1)


def apply_matrix_to_axes(
    tensor: np.ndarray, matrix: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Contract ``matrix`` (shape ``(2^k, 2^k)``) into ``tensor`` on ``axes``.

    The matrix's row/column index is little-endian over ``axes`` in listed
    order (first axis in ``axes`` ↔ least-significant bit).  The result has
    the matrix's output index split back onto the same axis positions.  This
    is the single hot kernel behind every gate application in the package.

    Two layouts are used internally:

    * single-qubit gates on a C-contiguous tensor take a zero-transpose fast
      path — a ``(left, 2, right)`` reshape *view* plus four scalar-vector
      products writing a contiguous result in one pass (the dominant case:
      multi-qubit gates return contiguous arrays here, and
      :func:`repro.sim.statevector.apply_circuit_to_tensor` fuses 1q runs);
    * the general k-qubit path is a tensordot (transpose + GEMM) plus a
      view-only ``moveaxis`` — forcing its output contiguous measured
      slower than letting the next contraction absorb the layout.

    Extra trailing axes beyond the targeted ones are treated as batch
    dimensions (used by the fragment-simulation cache to push all ``2^K``
    basis initialisations through a circuit at once).
    """
    axes = list(axes)
    k = len(axes)
    if matrix.shape != (1 << k, 1 << k):
        raise SimulationError(
            f"matrix shape {matrix.shape} does not match {k} target axes"
        )
    if k == 1 and tensor.flags.c_contiguous:
        q = axes[0]
        shape = tensor.shape
        left = int(np.prod(shape[:q], dtype=np.int64))
        right = int(np.prod(shape[q + 1 :], dtype=np.int64))
        v = tensor.reshape(left, 2, right)
        out = np.empty(v.shape, dtype=np.result_type(matrix.dtype, v.dtype))
        v0, v1 = v[:, 0, :], v[:, 1, :]
        np.add(matrix[0, 0] * v0, matrix[0, 1] * v1, out=out[:, 0, :])
        np.add(matrix[1, 0] * v0, matrix[1, 1] * v1, out=out[:, 1, :])
        return out.reshape(shape)
    gate = matrix.reshape((2,) * (2 * k))
    # C-order reshape: gate column axis (2k-1-j) is the bit of axes[j]; pair
    # them so the least-significant gate axis meets the first listed qubit.
    in_axes = list(range(2 * k - 1, k - 1, -1))
    moved = np.tensordot(gate, tensor, axes=(in_axes, axes))
    # Output axes 0..k-1 are the gate's row axes, most-significant first,
    # i.e. row axis j carries qubit axes[k-1-j]; move each one home.
    return np.moveaxis(moved, range(k), list(reversed(axes)))


def kron_all(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Kronecker product of a sequence (left-to-right)."""
    if not matrices:
        return np.eye(1, dtype=COMPLEX_DTYPE)
    return reduce(np.kron, matrices)


def operator_on_qubits(
    op: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Embed a k-qubit operator as a ``2^n x 2^n`` matrix (little-endian).

    Used only for cross-checks and small exact computations (tests, the
    analytic golden-cut finder); simulators never build these.  Implemented
    by batching the identity's columns through the gate kernel so the result
    is guaranteed to agree with the simulators' convention.
    """
    k = len(qubits)
    if op.shape != (1 << k, 1 << k):
        raise SimulationError(f"operator shape {op.shape} mismatch for {k} qubits")
    if len(set(qubits)) != k:
        raise SimulationError(f"duplicate qubits in {qubits}")
    if any(q < 0 or q >= num_qubits for q in qubits):
        raise SimulationError(f"qubits {qubits} out of range for n={num_qubits}")
    dim = 1 << num_qubits
    # Rows as a batch of basis columns: axis i = qubit i, final axis = column.
    eye = np.eye(dim, dtype=COMPLEX_DTYPE)
    batch = eye.reshape((2,) * num_qubits + (dim,))
    batch = batch.transpose(tuple(range(num_qubits - 1, -1, -1)) + (num_qubits,))
    out = apply_matrix_to_axes(batch, np.asarray(op, dtype=COMPLEX_DTYPE), qubits)
    out = out.transpose(tuple(range(num_qubits - 1, -1, -1)) + (num_qubits,))
    return np.ascontiguousarray(out.reshape(dim, dim))

