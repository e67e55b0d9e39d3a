"""Cut specifications and the single-bipartition cut search entry point.

A :class:`CutPoint` severs one qubit wire immediately *after* a given
instruction; a :class:`CutSpec` is an ordered collection of such points
(order defines the cut index ``k`` used by reconstruction tensors).
:func:`find_cuts` finds one bipartition under a fragment-width budget; it
is a thin ``num_fragments=2`` wrapper over the multi-fragment searcher in
:mod:`repro.cutting.search`, which solves small circuits exactly and falls
back to a greedy DAG-prefix heuristic on wider ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.exceptions import CutError

__all__ = ["CutPoint", "CutSpec", "find_cuts"]


@dataclass(frozen=True, order=True)
class CutPoint:
    """Cut wire ``wire`` right after instruction index ``gate_index``.

    ``gate_index`` must be an instruction acting on ``wire`` and must not be
    the last instruction on that wire (cutting after the final gate would
    sever nothing).
    """

    wire: int
    gate_index: int

    def validate(self, circuit: Circuit) -> None:
        CircuitDag(circuit).check_cut_point(self.wire, self.gate_index)


@dataclass(frozen=True)
class CutSpec:
    """An ordered tuple of cut points defining one bipartition."""

    cuts: tuple[CutPoint, ...]

    def __post_init__(self) -> None:
        wires = [c.wire for c in self.cuts]
        if len(set(wires)) != len(wires):
            raise CutError(
                "multiple cuts on one wire are not supported (the paper "
                "restricts to bipartitions; see DESIGN.md)"
            )
        if not self.cuts:
            raise CutError("CutSpec needs at least one cut")

    @property
    def num_cuts(self) -> int:
        return len(self.cuts)

    @property
    def wires(self) -> tuple[int, ...]:
        return tuple(c.wire for c in self.cuts)

    def validate(self, circuit: Circuit) -> None:
        dag = CircuitDag(circuit)
        for c in self.cuts:
            dag.check_cut_point(c.wire, c.gate_index)


def find_cuts(
    circuit: Circuit,
    max_fragment_qubits: int,
    max_cuts: int = 3,
) -> CutSpec:
    """Search for a valid cut set that fits both fragments in the budget.

    A ``num_fragments=2`` front end for
    :func:`repro.cutting.search.find_cut_specs` with the CutQC-style
    ``"width"`` objective (fewest cuts first, then smallest
    larger-fragment width): small circuits are solved by the exhaustive
    reference engine, wider ones by the greedy DAG-prefix heuristic with
    hill-climbing.  Raises :class:`CutError` when no such cut exists.
    """
    from repro.cutting.search import find_cut_specs  # cycle-free local import

    specs = find_cut_specs(
        circuit,
        max_fragment_qubits,
        num_fragments=2,
        max_cuts=max_cuts,
        objective="width",
    )
    return specs[0]
