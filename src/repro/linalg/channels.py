"""Kraus-operator quantum channels.

A channel is a list of Kraus operators ``{K_i}`` with ``Σ K_i† K_i = I``;
its action on a density matrix is ``ρ → Σ K_i ρ K_i†``.  The noise module
builds concrete channels (depolarizing, damping, ...) from these primitives
and the density-matrix simulator applies them with the same tensordot kernel
used for gates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import COMPLEX_DTYPE
from repro.exceptions import NoiseError
from repro.linalg.tensor import apply_matrix_to_axes

__all__ = ["KrausChannel", "apply_channel", "is_cptp"]


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map given by Kraus operators on ``num_qubits`` qubits.

    Parameters
    ----------
    operators:
        Sequence of square matrices of identical shape ``(2^k, 2^k)``.
    name:
        Human-readable tag used in noise-model reports.
    """

    operators: tuple[np.ndarray, ...]
    name: str = "kraus"

    def __post_init__(self) -> None:
        if not self.operators:
            raise NoiseError("channel needs at least one Kraus operator")
        dim = self.operators[0].shape[0]
        for op in self.operators:
            if op.shape != (dim, dim):
                raise NoiseError("Kraus operators must share a square shape")
        if dim & (dim - 1):
            raise NoiseError(f"Kraus dimension {dim} is not a power of two")
        object.__setattr__(
            self,
            "operators",
            tuple(np.asarray(op, dtype=COMPLEX_DTYPE) for op in self.operators),
        )
        if not is_cptp(self.operators):
            raise NoiseError(f"channel {self.name!r} is not trace preserving")

    @property
    def num_qubits(self) -> int:
        return int(np.log2(self.operators[0].shape[0]))

    def superoperator(self) -> np.ndarray:
        """Dense superoperator ``S = Σ_i conj(K_i) ⊗ K_i`` (cached, read-only).

        Row/column indices are little-endian over the combined
        ``(ket, bra)`` index pair (ket fastest), matching what
        :func:`apply_channel` feeds to
        :func:`repro.linalg.tensor.apply_matrix_to_axes` when it contracts
        the ket and bra axes of a density tensor in one pass.
        """
        cached = getattr(self, "_superop", None)
        if cached is not None:
            return cached
        dim = self.operators[0].shape[0]
        s = np.zeros((dim * dim, dim * dim), dtype=COMPLEX_DTYPE)
        for op in self.operators:
            s += np.kron(op.conj(), op)
        s.setflags(write=False)
        object.__setattr__(self, "_superop", s)
        return s

    def gram_matrices(self) -> tuple[np.ndarray, ...]:
        """The small positive matrices ``K_i† K_i`` (cached, read-only).

        Branch probabilities of a stochastic unravelling are
        ``⟨ψ|K_i†K_i|ψ⟩``, so trajectory simulation needs these — not the
        ``K_i|ψ⟩`` branches themselves — to pick a Kraus term.
        """
        cached = getattr(self, "_grams", None)
        if cached is not None:
            return cached
        grams = []
        for op in self.operators:
            g = op.conj().T @ op
            g.setflags(write=False)
            grams.append(g)
        out = tuple(grams)
        object.__setattr__(self, "_grams", out)
        return out

    def is_unital(self, atol: float = 1e-9) -> bool:
        """True iff the channel maps I to I (``Σ K_i K_i† = I``)."""
        dim = self.operators[0].shape[0]
        acc = sum(op @ op.conj().T for op in self.operators)
        return np.allclose(acc, np.eye(dim), atol=atol)

    def compose(self, other: "KrausChannel") -> "KrausChannel":
        """Channel equal to applying ``self`` then ``other``."""
        if self.num_qubits != other.num_qubits:
            raise NoiseError("cannot compose channels of different arity")
        ops = tuple(b @ a for a in self.operators for b in other.operators)
        return KrausChannel(ops, name=f"{other.name}∘{self.name}")

    def tensor(self, other: "KrausChannel") -> "KrausChannel":
        """Tensor product channel ``self ⊗ other`` (self on lower qubits)."""
        ops = tuple(
            np.kron(b, a) for a in self.operators for b in other.operators
        )
        return KrausChannel(ops, name=f"{self.name}⊗{other.name}")


def is_cptp(operators: Sequence[np.ndarray], atol: float = 1e-8) -> bool:
    """Check the trace-preservation condition ``Σ K† K = I``."""
    dim = operators[0].shape[0]
    acc = np.zeros((dim, dim), dtype=COMPLEX_DTYPE)
    for op in operators:
        acc += op.conj().T @ op
    return np.allclose(acc, np.eye(dim), atol=atol)


def apply_channel(
    rho_tensor: np.ndarray,
    channel: KrausChannel,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Apply a channel to a rank-2n density tensor on the given qubits.

    ``rho_tensor`` has ket axes ``0..n-1`` and bra axes ``n..2n-1`` (extra
    trailing axes are batch dimensions).  All Kraus terms are applied in one
    contraction: the channel's cached :meth:`KrausChannel.superoperator`
    acts on the combined ``(ket, bra)`` axes, so the cost is a single
    tensordot instead of two per operator plus an accumulation pass.  A
    single-operator channel (a plain unitary in Kraus clothing) keeps the
    two-small-contraction path, which touches ``4^k`` fewer entries.
    """
    ket_axes = list(qubits)
    bra_axes = [q + num_qubits for q in qubits]
    if len(channel.operators) == 1:
        op = channel.operators[0]
        term = apply_matrix_to_axes(rho_tensor, op, ket_axes)
        return apply_matrix_to_axes(term, op.conj(), bra_axes)
    return apply_matrix_to_axes(
        rho_tensor, channel.superoperator(), ket_axes + bra_axes
    )

