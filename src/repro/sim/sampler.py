"""Finite-shot sampling utilities.

A dense sample is a :class:`Counts`: a read-only ``{bitstring: count}``
mapping over one integer vector indexed by little-endian basis index.
Library code reads the vector (:attr:`Counts.array`) directly; the display
bitstring dictionary (qubit 0 leftmost — see :mod:`repro.utils.bits`) is
built only when someone reads the counts as a mapping.  Plain dictionaries
are still accepted wherever counts are consumed.  Sampling uses one
``multinomial`` draw over the full probability vector: O(2^n + shots) and a
single RNG consumption point, which keeps parallel fragment runs reproducible.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.exceptions import SimulationError
from repro.utils.bits import bitstring_to_index, format_bitstring
from repro.utils.rng import as_generator

__all__ = [
    "Counts",
    "sample_counts",
    "sample_sparse_counts",
    "counts_to_probs",
    "probs_to_counts",
]


class Counts(Mapping):
    """Read-only ``{bitstring: count}`` mapping over a dense count vector.

    ``array[i]`` is the count of little-endian basis index ``i`` over
    ``num_qubits`` qubits.  As a mapping it holds the non-zero entries only,
    keyed by display bitstring and iterated in ascending index order, and
    it compares equal to the equivalent plain ``dict``.  That dictionary is
    built on first mapping access; :func:`counts_to_probs` and
    :func:`~repro.backends.base.validate_execution_result` work on the
    vector and never build it.
    """

    __slots__ = ("array", "num_qubits", "_dict")

    def __init__(self, array: np.ndarray, num_qubits: int) -> None:
        self.array = np.asarray(array)
        self.num_qubits = int(num_qubits)
        self._dict: "dict[str, int] | None" = None

    def _mapping(self) -> dict[str, int]:
        if self._dict is None:
            a, n = self.array, self.num_qubits
            self._dict = {
                format_bitstring(int(i), n): int(a[i]) for i in np.flatnonzero(a)
            }
        return self._dict

    def __getitem__(self, key: str) -> int:
        return self._mapping()[key]

    def __iter__(self):
        return iter(self._mapping())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.array))

    def __eq__(self, other) -> bool:
        if isinstance(other, Counts):
            return self.num_qubits == other.num_qubits and np.array_equal(
                self.array, other.array
            )
        return super().__eq__(other)

    def defect(self, num_qubits: int) -> "str | None":
        """Why the vector is no ``num_qubits``-qubit sample, or ``None``.

        Checks the length (``2^num_qubits``), an integer dtype and that no
        entry is negative; callers raise their own error type with it.
        """
        a = self.array
        if a.shape != (1 << num_qubits,):
            return f"count vector of shape {a.shape} is not 2^{num_qubits} long"
        if a.dtype.kind not in "iu":
            return f"count vector has non-integer dtype {a.dtype}"
        if a.size and a.min() < 0:
            return "count vector has a negative entry"
        return None

    def __reduce__(self):
        return (Counts, (self.array, self.num_qubits))

    def __repr__(self) -> str:
        return f"Counts({self._mapping()!r})"


def _register_width(probs: np.ndarray, num_qubits: "int | None") -> int:
    """``num_qubits`` (inferred from the size if ``None``), checked against it."""
    if num_qubits is None:
        num_qubits = max(probs.size.bit_length() - 1, 0)
    if probs.size != 1 << num_qubits:
        raise SimulationError("probability vector length is not 2^n")
    return num_qubits


def sample_counts(
    probs: np.ndarray,
    shots: int,
    seed: "int | np.random.Generator | None" = None,
    num_qubits: int | None = None,
) -> Counts:
    """Draw ``shots`` outcomes from a probability vector.

    The vector is renormalised if it deviates from 1 by less than 1e-6
    (accumulated float error from long noisy simulations); larger deviations
    raise, since they indicate a real bug upstream.
    """
    probs = np.asarray(probs, dtype=np.float64)
    num_qubits = _register_width(probs, num_qubits)
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise SimulationError(f"probabilities sum to {total}, not 1")
    rng = as_generator(seed)
    return Counts(rng.multinomial(shots, probs / total), num_qubits)


def sample_sparse_counts(
    indices: np.ndarray,
    probs: np.ndarray,
    shots: int,
    num_qubits: int,
    seed: "int | np.random.Generator | None" = None,
) -> dict[str, int]:
    """Draw ``shots`` outcomes from a sparse distribution — no dense vector.

    ``indices`` are little-endian basis indices and ``probs`` the already
    normalised probabilities aligned with them.  One ``multinomial`` draw
    over the ``nnz`` kept entries: O(nnz + shots) in time and memory, so a
    20+-qubit sparse reconstruction samples without ever materialising its
    ``2^n`` vector.  The RNG consumption (one multinomial call) matches
    :func:`sample_counts`.
    """
    indices = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    if indices.shape != probs.shape or indices.ndim != 1:
        raise SimulationError("indices and probs must be 1-D and aligned")
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    total = probs.sum()
    if abs(total - 1.0) > 1e-6:
        raise SimulationError(f"probabilities sum to {total}, not 1")
    rng = as_generator(seed)
    draws = rng.multinomial(shots, probs / total)
    hit = np.nonzero(draws)[0]
    return {
        format_bitstring(int(indices[j]), num_qubits): int(draws[j])
        for j in hit
    }


def counts_to_probs(counts: "Mapping[str, int]", num_qubits: int) -> np.ndarray:
    """Empirical probability vector from counts.

    A :class:`Counts` is divided by its total in one pass; a plain mapping
    is parsed key by key.  Both reject the wrong width, negative or
    non-integer counts and an empty sample with
    :class:`~repro.exceptions.SimulationError`.
    """
    if isinstance(counts, Counts):
        defect = counts.defect(num_qubits)
        if defect is not None:
            raise SimulationError(defect)
        total = int(counts.array.sum())
        if total == 0:
            raise SimulationError("count vector sums to zero")
        return counts.array / total
    probs = np.zeros(1 << num_qubits, dtype=np.float64)
    total = 0
    for bitstring, c in counts.items():
        if len(bitstring) != num_qubits:
            raise SimulationError(
                f"bitstring {bitstring!r} length != {num_qubits} qubits"
            )
        if not isinstance(c, (int, np.integer)):
            raise SimulationError(f"non-integer count {c!r} for {bitstring!r}")
        if c < 0:
            raise SimulationError(f"negative count for {bitstring!r}")
        probs[bitstring_to_index(bitstring)] += c
        total += c
    if total == 0:
        raise SimulationError("counts dictionary is empty")
    return probs / total


def probs_to_counts(
    probs: np.ndarray, shots: int, num_qubits: int | None = None
) -> Counts:
    """Deterministic 'expected counts' (rounded), for ideal-limit tests.

    Entries that round below zero (negative quasi-probabilities of a raw
    reconstruction) count as zero.
    """
    probs = np.asarray(probs, dtype=np.float64)
    num_qubits = _register_width(probs, num_qubits)
    if shots <= 0:
        raise SimulationError(f"shots must be positive, got {shots}")
    # rint is np.round at 0 decimals: half-to-even, like the per-entry round()
    raw = np.rint(probs * shots)
    return Counts(np.maximum(raw, 0.0, out=raw).astype(np.int64), num_qubits)
