"""Vectorised bit-manipulation helpers.

Conventions (used consistently across the whole library, see DESIGN.md §5):

* Qubit ``i`` corresponds to tensor axis ``i`` of a state array.
* The flat integer index of a computational basis state is **little-endian**
  in the qubit index: ``index = sum_i bit_i * 2**i`` — qubit 0 is the least
  significant bit.
* Bitstrings are displayed with qubit 0 leftmost: ``"b0 b1 ... b(n-1)"``
  (without spaces).  This avoids the endianness confusion familiar from
  other toolkits; :func:`format_bitstring` / :func:`bitstring_to_index` are
  the only sanctioned converters.

All hot-path helpers are vectorised over NumPy arrays of indices, per the
HPC guide ("vectorising for loops").
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "bit_at",
    "bits_to_index",
    "bitstring_to_index",
    "format_bitstring",
    "index_to_bits",
    "marginalize_probs",
    "permute_probability_axes",
    "split_index",
]


def bit_at(indices: np.ndarray | int, qubit: int) -> np.ndarray | int:
    """Extract the bit of ``qubit`` from little-endian basis ``indices``.

    Works elementwise on arrays so callers can classify a whole sampled
    outcome vector in one shot.
    """
    return (np.asarray(indices) >> qubit) & 1


def index_to_bits(index: int, num_qubits: int) -> np.ndarray:
    """Expand a little-endian basis index into a bit array of length ``n``.

    ``result[i]`` is the bit of qubit ``i``.
    """
    if index < 0 or index >= (1 << num_qubits):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    return (index >> np.arange(num_qubits)) & 1


def bits_to_index(bits: Sequence[int] | np.ndarray) -> int:
    """Pack a bit array (``bits[i]`` = bit of qubit ``i``) into a flat index."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1:
        raise ValueError("bits must be one-dimensional")
    if np.any((bits != 0) & (bits != 1)):
        raise ValueError("bits must contain only 0/1")
    return int(np.dot(bits, 1 << np.arange(bits.size, dtype=np.int64)))


def format_bitstring(index: int, num_qubits: int) -> str:
    """Render a basis index as the canonical display string (qubit 0 first)."""
    if index < 0 or index >= (1 << num_qubits):
        raise ValueError(f"index {index} out of range for {num_qubits} qubits")
    # binary formatting is most-significant first; reverse to put qubit 0 left
    return format(index, f"0{num_qubits}b")[::-1] if num_qubits else ""


def bitstring_to_index(bitstring: str) -> int:
    """Parse the canonical display string back into a little-endian index."""
    if not bitstring or bitstring.strip("01"):
        raise ValueError(f"invalid bitstring {bitstring!r}")
    return int(bitstring[::-1], 2)


def split_index(
    indices: np.ndarray | int,
    groups: Sequence[Sequence[int]],
) -> tuple[np.ndarray, ...]:
    """Split basis ``indices`` over ``n`` qubits into sub-indices per group.

    ``groups`` is a partition (or subset selection) of qubit positions.  For
    each group ``g = [q0, q1, ...]`` the returned sub-index is little-endian
    in the *order the group lists the qubits*:  ``sub = sum_j bit(q_j) 2**j``.

    This is the workhorse for separating "output bits" from "cut-wire bits"
    in fragment measurement records; it is fully vectorised.
    """
    indices = np.asarray(indices)
    out: list[np.ndarray] = []
    for group in groups:
        sub = np.zeros_like(indices)
        for j, q in enumerate(group):
            sub = sub | (((indices >> q) & 1) << j)
        out.append(sub)
    return tuple(out)


def permute_probability_axes(
    probs: np.ndarray, permutation: Sequence[int]
) -> np.ndarray:
    """Reorder the qubits of a flat probability vector.

    ``permutation[i]`` gives the *new* position of qubit ``i``.  The returned
    vector satisfies ``out[index with bit(new_pos)=b] = in[index with
    bit(i)=b]``.  Implemented as a reshape/transpose (views + one copy on
    ravel), never a Python loop over the 2**n entries.
    """
    n = int(np.log2(probs.size))
    if probs.size != 1 << n:
        raise ValueError("probability vector length is not a power of two")
    perm = list(permutation)
    if sorted(perm) != list(range(n)):
        raise ValueError(f"invalid permutation {permutation} for {n} qubits")
    rev = tuple(range(n - 1, -1, -1))
    # little-endian flat -> tensor with axis i = qubit i
    tensor = probs.reshape((2,) * n).transpose(rev)
    # We want output axis j to hold the qubit i with perm[i] == j, i.e.
    # output axis j comes from input axis perm^{-1}(j).
    inverse = np.argsort(perm)
    out = np.transpose(tensor, axes=inverse)
    # tensor (axis i = output qubit i) -> little-endian flat
    return out.transpose(rev).reshape(-1)


def marginalize_probs(
    probs: np.ndarray, keep: Iterable[int], num_qubits: int | None = None
) -> np.ndarray:
    """Marginalise a probability vector onto the qubits in ``keep``.

    The output is little-endian over ``keep`` *in the order given*.
    """
    if num_qubits is None:
        num_qubits = int(np.log2(probs.size))
    keep = list(keep)
    if probs.size != 1 << num_qubits:
        raise ValueError("probability vector length mismatch")
    n = num_qubits
    # little-endian flat -> tensor with axis i = qubit i
    tensor = probs.reshape((2,) * n).transpose(tuple(range(n - 1, -1, -1)))
    drop = tuple(q for q in range(n) if q not in keep)
    marg = tensor.sum(axis=drop) if drop else tensor
    # marg axes are the kept qubits in increasing qubit order; reorder so
    # axis j = keep[j], then flatten little-endian (reverse axes first).
    increasing = sorted(keep)
    order = [increasing.index(q) for q in keep]
    marg = np.transpose(marg, axes=order)
    k = len(keep)
    return marg.transpose(tuple(range(k - 1, -1, -1))).reshape(-1)
