"""Bipartitioning a circuit along a cut specification.

Given a :class:`~repro.cutting.cut.CutSpec`, instructions are classified as
*downstream* (DAG descendants of any cut point, closed under whole-wire
absorption of uncut wires — see
:meth:`~repro.circuits.dag.CircuitDag.downstream_closure`) or *upstream*
(everything else).  The split is validated wire by wire: a wire crossing
from upstream to downstream must be cut exactly at its crossing point, and
no wire may flow downstream→upstream (that would need time travel — i.e.
the cut set does not induce a bipartition).

The result is a :class:`FragmentPair` holding two local circuits plus the
book-keeping needed to reassemble measurement records:

* which local qubits of the upstream fragment are *cut wires* (measured in
  tomography bases) vs *outputs* (measured in Z for the final distribution),
* which local qubits of the downstream fragment receive *preparation states*,
* the original-qubit labels of each fragment's outputs, so reconstruction
  can permute the joint distribution back to the uncut register order.

Untouched original qubits (no gates at all) are assigned to the downstream
fragment as idle wires.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.cutting.cut import CutSpec
from repro.exceptions import CutError

__all__ = ["FragmentPair", "bipartition"]


@dataclass
class FragmentPair:
    """Everything reconstruction needs to know about one bipartition."""

    #: local upstream circuit (width = number of upstream original qubits)
    upstream: Circuit
    #: local downstream circuit
    downstream: Circuit
    #: number of cuts K (cut index k refers to CutSpec order)
    num_cuts: int
    #: upstream local qubit of cut k (measured in the tomography basis)
    up_cut_local: list[int]
    #: downstream local qubit of cut k (initialised to preparation states)
    down_cut_local: list[int]
    #: upstream local output qubits, ordered by original label
    up_out_local: list[int]
    #: original labels of the upstream outputs (same order as up_out_local)
    up_out_original: list[int]
    #: downstream local output qubits (all of them), ordered by original label
    down_out_local: list[int]
    #: original labels of the downstream outputs
    down_out_original: list[int]
    #: the cut spec this pair was built from
    spec: CutSpec = field(repr=False, default=None)  # type: ignore[assignment]
    #: instruction indices (in the parent circuit) that went downstream, in
    #: the order they appear in ``downstream`` — local instruction ``j`` of
    #: the downstream fragment is parent instruction ``down_node_indices[j]``.
    #: Consumed by :func:`repro.cutting.chain.partition_chain` to translate
    #: later cut specs into the remainder's coordinates.
    down_node_indices: tuple[int, ...] = field(repr=False, default=())

    # ------------------------------------------------------------------
    @property
    def n_up(self) -> int:
        return self.upstream.num_qubits

    @property
    def n_down(self) -> int:
        return self.downstream.num_qubits

    @property
    def n_up_out(self) -> int:
        return len(self.up_out_local)

    @property
    def n_down_out(self) -> int:
        return len(self.down_out_local)

    def output_order(self) -> list[int]:
        """Original qubit labels in (upstream outputs, downstream outputs) order."""
        return list(self.up_out_original) + list(self.down_out_original)

    def describe(self) -> str:
        return (
            f"FragmentPair(K={self.num_cuts}, upstream {self.n_up}q/"
            f"{len(self.upstream)} ops, downstream {self.n_down}q/"
            f"{len(self.downstream)} ops, outputs {self.n_up_out}+{self.n_down_out})"
        )


def _split_frontier(
    dag: CircuitDag, cuts: "list[tuple[int, int]]"
) -> tuple[int, list[int], list[int]]:
    """Downstream side of one cut set, validated as a bipartition.

    ``cuts`` are valid ``(wire, gate_index)`` points.  The downstream side
    is :meth:`~repro.circuits.dag.CircuitDag.downstream_closure` — the
    cut points' dependents, closed under reachability and whole-wire
    absorption of uncut wires.  Returns ``(down_mask, q_up, q_down)``: the
    downstream instruction bitmask and the two halves' ascending original
    wires (untouched wires go downstream as idle wires).  Raises
    :class:`CutError` naming the first violated rule: a cut anchor lies
    downstream, a wire flows downstream→upstream, a crossing wire is not
    cut at its boundary, a cut wire does not cross.

    :func:`bipartition` and the greedy cut search's scorer both decide
    validity here, so a scored candidate always splits for real.
    """
    down = dag.downstream_closure(cuts)

    # cut anchors must be upstream (otherwise the cuts are mutually cyclic)
    for wire, gate_index in cuts:
        if down >> gate_index & 1:
            raise CutError(
                f"cut ({wire},{gate_index}) lies downstream of "
                "another cut; the cut set does not induce a bipartition"
            )

    # per-wire validation: clean U-prefix / D-suffix split, crossing wires
    # must be cut at the boundary.
    cut_at = dict(cuts)
    q_up: list[int] = []
    q_down: list[int] = []
    for wire, mask in enumerate(dag.wire_masks):
        down_part = mask & down
        up_part = mask ^ down_part
        if up_part:
            q_up.append(wire)
        if down_part or not mask:
            q_down.append(wire)
        if up_part and down_part:
            first_down = (down_part & -down_part).bit_length() - 1
            late_up = up_part >> first_down
            if late_up:
                at = first_down + (late_up & -late_up).bit_length() - 1
                raise CutError(
                    f"wire {wire} flows downstream→upstream at "
                    f"instruction {at}; cut set invalid"
                )
            last_u = up_part.bit_length() - 1
            if wire not in cut_at:
                raise CutError(
                    f"wire {wire} crosses the bipartition but is not cut"
                )
            if cut_at[wire] != last_u:
                raise CutError(
                    f"cut on wire {wire} sits at instruction "
                    f"{cut_at[wire]}, but the bipartition boundary is "
                    f"after instruction {last_u}"
                )
        elif wire in cut_at:
            raise CutError(
                f"wire {wire} is cut but does not cross the bipartition "
                "(nothing downstream on that wire)"
            )

    overlap = set(q_up) & set(q_down)
    if overlap != set(cut_at):
        raise CutError(
            f"fragments share wires {sorted(overlap)} but cuts are on "
            f"{sorted(cut_at)}"
        )
    return down, q_up, q_down


def bipartition(circuit: Circuit, spec: CutSpec) -> FragmentPair:
    """Split ``circuit`` into upstream/downstream fragments along ``spec``."""
    dag = CircuitDag(circuit)
    for cut in spec.cuts:
        dag.check_cut_point(cut.wire, cut.gate_index)
    down, q_up, q_down = _split_frontier(
        dag, [(c.wire, c.gate_index) for c in spec.cuts]
    )

    up_map = {orig: loc for loc, orig in enumerate(q_up)}
    down_map = {orig: loc for loc, orig in enumerate(q_down)}
    upstream = Circuit(len(q_up), name=f"{circuit.name}_up")
    downstream = Circuit(len(q_down), name=f"{circuit.name}_down")
    down_nodes: list[int] = []
    for i, inst in enumerate(circuit):
        if down >> i & 1:
            down_nodes.append(i)
            downstream.append(inst.remap(down_map))
        else:
            upstream.append(inst.remap(up_map))

    cut_wires = set(spec.wires)
    up_out_original = [q for q in q_up if q not in cut_wires]
    down_out_original = list(q_down)

    return FragmentPair(
        upstream=upstream,
        downstream=downstream,
        num_cuts=spec.num_cuts,
        up_cut_local=[up_map[c.wire] for c in spec.cuts],
        down_cut_local=[down_map[c.wire] for c in spec.cuts],
        up_out_local=[up_map[q] for q in up_out_original],
        up_out_original=up_out_original,
        down_out_local=[down_map[q] for q in down_out_original],
        down_out_original=down_out_original,
        spec=spec,
        down_node_indices=tuple(down_nodes),
    )
