"""Dependency DAG over circuit instructions.

Nodes are instruction indices; there is an edge ``i -> j`` when instruction
``j`` is the next consumer of a wire written by ``i``.  Program order is
therefore a topological order.  The DAG drives:

* the transpiler passes (finding runs of single-qubit gates),
* the **cutter** (deciding which instructions sit upstream/downstream of a
  wire cut — the central structural operation of the whole reproduction),
* layering for the ASCII drawer and depth computations.

The constructor makes one pass over the circuit, recording every wire's
instruction list and every instruction's predecessors and successors.
Cut-side questions are answered on **bitmasks** (bit ``i`` = instruction
``i``), built lazily on first use: a per-wire instruction mask and a
per-node "descendants including self" mask, filled in reverse program
order.  :meth:`CircuitDag.downstream_closure` — the frontier primitive both
:func:`~repro.cutting.fragments.bipartition` and the greedy cut search
score with — is a handful of integer ORs on them, so the searcher can rank
every candidate split without building a fragment.  Layering,
reachability and the cut queries run on these lists and masks;
:mod:`networkx` only backs the :attr:`CircuitDag.graph` view (built on
first access, for callers and tests that want graph algorithms) and the
qubit-interaction graph of the Kernighan–Lin bisection.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable

import networkx as nx

from repro.circuits.circuit import Circuit
from repro.exceptions import CutError

__all__ = ["CircuitDag"]


class CircuitDag:
    """Wire-dependency DAG of a :class:`Circuit`.

    The :attr:`graph` view labels each edge with the wires (qubit indices)
    inducing the dependency; multiple wires between the same pair of
    instructions collect in the edge attribute ``wires``.
    """

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        segments: list[list[int]] = [[] for _ in range(circuit.num_qubits)]
        preds: list[list[int]] = []
        succs: list[list[int]] = []
        for idx, inst in enumerate(circuit):
            mine: list[int] = []
            for q in inst.qubits:
                seg = segments[q]
                if seg and seg[-1] not in mine:
                    mine.append(seg[-1])
                    succs[seg[-1]].append(idx)
                seg.append(idx)
            preds.append(mine)
            succs.append([])
        self._segments = segments
        self._preds = preds
        self._succs = succs

    # ------------------------------------------------------------------
    @functools.cached_property
    def graph(self) -> nx.DiGraph:
        """The DAG as a :class:`networkx.DiGraph` (built on first access)."""
        g = nx.DiGraph()
        g.add_nodes_from(range(len(self.circuit)))
        last_writer: dict[int, int] = {}
        for idx, inst in enumerate(self.circuit):
            for q in inst.qubits:
                if q in last_writer:
                    src = last_writer[q]
                    if g.has_edge(src, idx):
                        g[src][idx]["wires"].add(q)
                    else:
                        g.add_edge(src, idx, wires={q})
                last_writer[q] = idx
        return g

    def predecessors(self, node: int) -> list[int]:
        return self._preds[node]

    def successors(self, node: int) -> list[int]:
        return self._succs[node]

    def topological_order(self) -> list[int]:
        """Program order: every edge points to a higher index."""
        return list(range(len(self.circuit)))

    def layers(self) -> list[list[int]]:
        """Greedy ASAP layering: each layer holds mutually independent ops."""
        level: list[int] = []
        out: list[list[int]] = []
        for node in range(len(self.circuit)):
            lv = 1 + max((level[p] for p in self._preds[node]), default=-1)
            level.append(lv)
            while len(out) <= lv:
                out.append([])
            out[lv].append(node)
        return out

    # ------------------------------------------------------------------
    def wire_segments(self, qubit: int) -> list[int]:
        """Instruction indices touching ``qubit`` in program order."""
        return list(self._segments[qubit])

    def check_cut_point(self, wire: int, gate_index: int) -> None:
        """Raise :class:`CutError` unless wire ``wire`` can be severed right
        after instruction ``gate_index`` (the instruction must touch the
        wire and must not be the last one on it)."""
        if not 0 <= wire < self.circuit.num_qubits:
            raise CutError(f"cut wire {wire} outside circuit")
        if not 0 <= gate_index < len(self.circuit):
            raise CutError(f"cut gate index {gate_index} outside circuit")
        if wire not in self.circuit[gate_index].qubits:
            raise CutError(
                f"instruction {gate_index} does not touch wire {wire}"
            )
        if gate_index == self._segments[wire][-1]:
            raise CutError(
                f"cut after instruction {gate_index} severs nothing: "
                f"it is the last instruction on wire {wire}"
            )

    def downstream_of_cut(self, qubit: int, after_index: int) -> set[int]:
        """Instructions reachable from the cut on ``qubit`` after ``after_index``.

        The cut severs wire ``qubit`` *after* instruction ``after_index``
        (which must act on that qubit).  Returns the set of instruction
        indices that depend — directly through that wire or transitively —
        on the cut point.  These form the candidate downstream fragment.
        """
        return self.mask_nodes(
            self.descendant_masks[self._first_after(qubit, after_index)]
        )

    def _first_after(self, qubit: int, after_index: int) -> int:
        """The instruction following ``after_index`` on wire ``qubit``."""
        if qubit not in self.circuit[after_index].qubits:
            raise CutError(
                f"instruction {after_index} does not act on qubit {qubit}"
            )
        segs = self._segments[qubit]
        pos = segs.index(after_index)
        if pos == len(segs) - 1:
            raise CutError(
                f"cut after the final gate on qubit {qubit} severs nothing"
            )
        return segs[pos + 1]

    def upstream_closure(self, nodes: Iterable[int]) -> set[int]:
        """All ancestors of ``nodes`` (plus the nodes themselves)."""
        out: set[int] = set()
        stack = list(nodes)
        while stack:
            node = stack.pop()
            if node not in out:
                out.add(node)
                stack.extend(self._preds[node])
        return out

    # ------------------------------------------------------------------
    # bitmask frontier primitive
    # ------------------------------------------------------------------
    @functools.cached_property
    def wire_masks(self) -> list[int]:
        """Per wire, the bitmask of the instructions touching it."""
        out = []
        for seg in self._segments:
            mask = 0
            for i in seg:
                mask |= 1 << i
            out.append(mask)
        return out

    @functools.cached_property
    def descendant_masks(self) -> list[int]:
        """Per instruction, the bitmask of its descendants *and itself*.

        Filled in reverse program order (a reverse topological order), so
        every successor's mask is final when a node ORs it in.
        """
        out = [0] * len(self.circuit)
        for node in range(len(self.circuit) - 1, -1, -1):
            mask = 1 << node
            for succ in self._succs[node]:
                mask |= out[succ]
            out[node] = mask
        return out

    @staticmethod
    def mask_nodes(mask: int) -> set[int]:
        """The instruction indices whose bits are set in ``mask``."""
        out = set()
        while mask:
            low = mask & -mask
            out.add(low.bit_length() - 1)
            mask ^= low
        return out

    def downstream_closure(self, points: Iterable[tuple[int, int]]) -> int:
        """Smallest consistent downstream instruction set, as a bitmask.

        ``points`` are ``(wire, gate_index)`` cut positions.  The set is
        seeded with the descendants of the first instruction after each
        cut, then closed under two rules until a fixpoint:

        * *reachability*: anything depending on a downstream instruction
          is downstream;
        * *wire integrity*: a non-cut wire with any downstream instruction
          is downstream in its entirety (wires cannot straddle the
          bipartition unless they are cut).

        The second rule is what places gates that merely *share a wire*
        with the downstream block (but do not depend on the cut) into the
        downstream fragment — e.g. an early gate acting only on the
        downstream register.  Raises :class:`CutError` for a point whose
        instruction misses the wire or is the wire's last.
        """
        desc = self.descendant_masks
        cut_wires = set()
        down = 0
        for wire, gate_index in points:
            cut_wires.add(wire)
            down |= desc[self._first_after(wire, gate_index)]
        uncut = [
            m
            for w, m in enumerate(self.wire_masks)
            if m and w not in cut_wires
        ]
        while True:
            grown = down
            for m in uncut:
                if grown & m:
                    grown |= m
            fresh = grown & ~down
            if not fresh:
                return down
            # the absorbed instructions' descendants join too
            for node in self.mask_nodes(fresh):
                grown |= desc[node]
            down = grown

    # ------------------------------------------------------------------
    # cut-search helpers
    # ------------------------------------------------------------------
    def wire_cut_positions(self) -> list[tuple[int, int]]:
        """Every valid ``(wire, gate_index)`` cut position of the circuit.

        A wire can be severed after any instruction touching it except the
        last (cutting after the final gate severs nothing), so this is the
        candidate pool the cut searchers enumerate.  Returned as plain
        tuples, not :class:`~repro.cutting.cut.CutPoint`, to keep this
        module free of cutting imports.
        """
        out: list[tuple[int, int]] = []
        for wire, segs in enumerate(self._segments):
            out.extend((wire, g) for g in segs[:-1])
        return out

    def qubit_interaction_graph(self) -> nx.Graph:
        """Weighted qubit-coupling graph of the circuit.

        Nodes are qubits; an edge ``(a, b)`` carries ``weight`` = the number
        of multi-qubit instructions acting on both ``a`` and ``b``.  A
        balanced min-cut of this graph is a natural seed for cut-point
        search: cheap edges are wires few gates entangle.
        """
        g = nx.Graph()
        g.add_nodes_from(range(self.circuit.num_qubits))
        for inst in self.circuit:
            for a, b in itertools.combinations(sorted(set(inst.qubits)), 2):
                weight = g.get_edge_data(a, b, default={}).get("weight", 0)
                g.add_edge(a, b, weight=weight + 1)
        return g

    def balanced_qubit_bisection(
        self, seed: "int | None" = None
    ) -> tuple[set[int], set[int]]:
        """Balanced min-cut-style bisection of the qubit set.

        Kernighan–Lin on :meth:`qubit_interaction_graph` — the two halves
        are equal-sized (±1) and the total weight of gates crossing them is
        locally minimal.  ``seed`` makes the heuristic's tie-breaks
        deterministic.
        """
        from networkx.algorithms.community import kernighan_lin_bisection

        graph = self.qubit_interaction_graph()
        a, b = kernighan_lin_bisection(graph, weight="weight", seed=seed)
        return set(a), set(b)
