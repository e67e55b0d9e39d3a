"""Sparse / top-k support for the tree reconstruction (ROADMAP item 4).

Dense reconstruction carries a full ``2^n`` vector to the root, which is
the repo's memory wall.  NISQ workloads that benefit from cutting are
dominated by near-deterministic, *sparse* outcome distributions, so the
contraction can prune outcome columns as it goes — the same escape hatch
as CutQC's "dynamic definition" recursion, here in a single pass with a
rigorous error bound.

**Pruning measure.**  Every pruning decision ranks outcomes by their
*mixed-input subtree marginal*: the probability the partially contracted
subtree would assign to the outcome if its entering cut wires carried the
maximally mixed state.  This is exactly the all-``I`` basis row of the
accumulated tensor (an ``I`` on the entering side sums the preparation
eigenstates, on an exiting side it marginalises the cut bits), so it is
free — no extra contraction.  Since any entering state ``ρ`` satisfies
``ρ ≤ 2^{K_in}·(I/2^{K_in})`` as an operator inequality and the rest of
the reconstruction is a completely positive map on that input, the true
final mass of an outcome is at most ``2^{K_in}`` times its mixed-input
marginal.  Summing that bound over every discarded outcome at every
pruning step gives ``prune_bound`` — on exact fragment data a rigorous
upper bound on the L1 (and hence total-variation) error of the sparse
result.  On finite-shot data the operator inequality applies to the
*expected* records: shot noise perturbs discarded entries like kept
ones, so the bound is exact in expectation and the fluctuation is
covered by the delta-method sampling term
(``tv_bound = sampling_stddev + prune_bound`` on
:class:`~repro.core.pipeline.TreeRunResult`).  The additive
composition over steps is a union bound, first-order equal to the
multiplicative kept-mass product ``1 − Π_i (1 − ε_i)`` along the tree.

Policies receive the *normalised* scores (mixed-input marginals, which
sum to ≈ 1 on exact data), so ``threshold(1e-4)`` means "drop outcomes a
maximally mixed input would see with probability below 1e-4" at every
level of the tree.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ReconstructionError
from repro.utils.bits import format_bitstring

__all__ = [
    "PrunePolicy",
    "SparseDistribution",
    "postprocess_sparse",
    "threshold",
    "top_k",
]


class PrunePolicy:
    """Base class of pruning policies (see :func:`threshold` / :func:`top_k`).

    A policy is a callable rule ``select(scores) -> kept indices``; scores
    are mixed-input subtree marginals (module docstring).  Policies never
    return an empty selection — if nothing qualifies, the single largest
    score survives, so the reconstruction always has support.
    """

    def select(self, scores: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _non_empty(kept: np.ndarray, scores: np.ndarray) -> np.ndarray:
        if kept.size == 0:
            kept = np.array([int(np.argmax(scores))])
        return np.sort(kept).astype(np.int64)


@dataclass(frozen=True)
class _Threshold(PrunePolicy):
    eps: float

    def select(self, scores: np.ndarray) -> np.ndarray:
        return self._non_empty(np.nonzero(scores >= self.eps)[0], scores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"threshold({self.eps!r})"


@dataclass(frozen=True)
class _TopK(PrunePolicy):
    k: int

    def select(self, scores: np.ndarray) -> np.ndarray:
        if scores.size <= self.k:
            return np.arange(scores.size, dtype=np.int64)
        # stable sort: ties break on the lower column position (see top_k)
        kept = np.argsort(-scores, kind="stable")[: self.k]
        return self._non_empty(kept, scores)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"top_k({self.k!r})"


def threshold(eps: float) -> PrunePolicy:
    """Drop outcomes whose mixed-input subtree marginal is below ``eps``.

    ``eps = 0`` keeps everything with non-negative score (exact zeros
    included), so it degrades gracefully to the dense result.
    """
    if eps < 0:
        raise ReconstructionError(f"threshold eps must be >= 0, got {eps}")
    return _Threshold(float(eps))


def top_k(k: int) -> PrunePolicy:
    """Keep the ``k`` largest-scoring outcomes at every pruning step.

    ``top_k(2^n)`` (or larger) keeps everything and is bit-identical to
    the dense path.

    Ties are broken by a stable sort, so among equal scores the lower
    *column position* survives.  A node's columns are its output index,
    little-endian over ``frag.out_original``.  A merged cluster's columns
    run over the kept columns of the merge's first operand fastest, then
    over the second operand's, each side in ascending value; the merge
    that closes the last open groups first sorts each side's bits by
    original qubit (:func:`repro.cutting.reconstruction._merge_clusters`).
    The tie rule therefore follows this column order, not the final
    qubit-order index: a tied outcome of the second operand can lose to an
    outcome of the first with a larger final index.
    """
    if k < 1:
        raise ReconstructionError(f"top_k k must be >= 1, got {k}")
    return _TopK(int(k))


@dataclass
class SparseDistribution:
    """A pruned reconstruction: kept outcomes only, never the dense vector.

    ``indices`` are little-endian basis indices over the original circuit's
    ``num_qubits`` register (unique, sorted ascending), ``values`` the
    reconstructed quasi-probabilities aligned with them.  ``prune_bound``
    is the accumulated L1 error bound of everything discarded (module
    docstring); the dense reconstruction of the same data differs from
    :meth:`to_dense` by at most that much in L1, hence at most that much
    in total variation.
    """

    num_qubits: int
    indices: np.ndarray
    values: np.ndarray
    prune_bound: float = 0.0

    def __post_init__(self) -> None:
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values)
        if self.indices.ndim != 1 or self.indices.shape != self.values.shape:
            raise ReconstructionError(
                "indices and values must be 1-D arrays of equal length"
            )
        if self.indices.size and (
            self.indices.min() < 0
            or self.indices.max() >= (1 << self.num_qubits)
        ):
            raise ReconstructionError("sparse index out of register range")

    @property
    def nnz(self) -> int:
        """Number of kept outcomes."""
        return int(self.indices.size)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the kept representation."""
        return int(self.indices.nbytes + self.values.nbytes)

    def sum(self) -> float:
        return float(self.values.sum())

    def to_dense(self) -> np.ndarray:
        """Scatter into the full ``2^n`` vector (small-n diagnostics only)."""
        out = np.zeros(1 << self.num_qubits, dtype=self.values.dtype)
        out[self.indices] = self.values
        return out

    def as_dict(self) -> dict[str, float]:
        """Display-bitstring → value (qubit 0 leftmost, as everywhere)."""
        return {
            format_bitstring(int(i), self.num_qubits): float(v)
            for i, v in zip(self.indices, self.values)
        }

    def tv_against(self, truth: "dict[int, float] | np.ndarray") -> float:
        """Total-variation distance to a reference distribution.

        ``truth`` is either a dense vector or a ``{index: probability}``
        dict — the latter never densifies, so it works at 20+ qubits.
        """
        if isinstance(truth, dict):
            mine = dict(zip((int(i) for i in self.indices), self.values))
            keys = set(mine) | set(truth)
            return 0.5 * sum(
                abs(float(mine.get(k, 0.0)) - float(truth.get(k, 0.0)))
                for k in keys
            )
        truth = np.asarray(truth, dtype=np.float64)
        return float(0.5 * np.abs(self.to_dense() - truth).sum())

    # ------------------------------------------------------------- sampling
    def _normalised(self) -> np.ndarray:
        p = np.clip(np.asarray(self.values, dtype=np.float64), 0.0, None)
        total = p.sum()
        tol = max(1e-6, float(self.prune_bound))
        if abs(total - 1.0) > tol:
            raise ReconstructionError(
                f"sparse values sum to {total}, outside the pruning "
                f"tolerance {tol} of 1 — postprocess before sampling"
            )
        if total <= 0:
            raise ReconstructionError("sparse distribution has zero mass")
        return p / total

    def sample_counts(
        self, shots: int, seed: "int | np.random.Generator | None" = None
    ) -> dict[str, int]:
        """Multinomial counts over the kept outcomes — no dense vector.

        One ``rng.multinomial`` draw over ``nnz`` entries: O(nnz + shots),
        matching the law of :func:`repro.sim.sampler.sample_counts` on the
        dense scatter restricted to the kept support.
        """
        from repro.sim.sampler import sample_sparse_counts

        return sample_sparse_counts(
            self.indices, self._normalised(), shots, self.num_qubits, seed
        )

    def to_counts(self, shots: int) -> dict[str, int]:
        """Deterministic expected counts (sparse analogue of
        :func:`repro.sim.sampler.probs_to_counts`)."""
        raw = np.round(np.asarray(self.values, dtype=np.float64) * shots)
        hit = np.nonzero(raw > 0)[0]
        return {
            format_bitstring(int(self.indices[j]), self.num_qubits): int(
                raw[j]
            )
            for j in hit
        }


def postprocess_sparse(sd: SparseDistribution, mode: str) -> SparseDistribution:
    """Sparse analogue of the dense ``postprocess=`` modes.

    ``clip`` clips negatives and renormalises over the *kept* support;
    ``simplex`` projects the kept values onto the probability simplex of
    the kept support (discarded outcomes stay exactly zero, consistent
    with the pruning decision).  Either way the result sums to 1 over the
    kept outcomes; ``prune_bound`` still bounds how much mass the raw
    reconstruction had outside them.
    """
    if mode == "raw":
        return sd
    if mode == "clip":
        out = np.clip(sd.values, 0.0, None)
        s = out.sum()
        if s <= 0:
            raise ReconstructionError("reconstruction clipped to zero mass")
        return replace(sd, values=out / s)
    if mode == "simplex":
        from repro.cutting.reconstruction import project_to_simplex

        return replace(sd, values=project_to_simplex(sd.values))
    raise ReconstructionError(f"unknown postprocess mode {mode!r}")
