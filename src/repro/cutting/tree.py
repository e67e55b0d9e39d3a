"""Topology-general fragment trees and DAGs (chains are the one-child case).

A :class:`FragmentTree` generalises :class:`~repro.cutting.chain.FragmentChain`
to an arbitrary rooted graph of ``N ≥ 2`` fragments connected by ``G ≥
N − 1`` *cut groups*: cut group ``g`` severs the wires flowing from one
fragment (its *source*) into exactly one other fragment (its
*destination*).  Every non-root fragment receives preparation states on
the wires of **one or more** entering groups (several entering groups make
the node a *joint-prep* fragment and the structure a DAG rather than a
tree); a fragment may likewise emit cut wires to several child groups —
its measurement side then covers the union of those groups' wires.  The
root only measures, sinks only receive, a tree is the case where every
node has at most one entering group, and a chain is the degenerate tree in
which every node has at most one child.

:func:`partition_tree` builds the structure by *worklist bipartition*: the
circuit starts as one piece; each :class:`~repro.cutting.cut.CutSpec`
(given in **original-circuit** coordinates) finds the piece holding its
cut points and splits it in two, with per-piece bookkeeping tracking where
every earlier group's preparation and measurement wires ended up.  Unlike
the chain cascade, the upstream half of a split can be re-cut later
(branching nodes), and the downstream half of a split can receive the
preparation wires of several earlier groups (joint-prep DAG nodes) —
multi-source DAGs, where a later split leaves an upstream half with no
entering group, are fine too.  A ``CutError`` is raised when the specs do
not induce a connected DAG — a group's wires split across fragments.
Genuinely *cyclic* structures cannot come out of the worklist (each split
keeps a group's source piece ahead of its destination piece); the loud
topological-order error in :meth:`FragmentTree._link` guards
directly-constructed graphs.

Node indices are topological (parents precede children, the root is node
0); cut groups keep the order of ``specs``.  The flat little-endian layout
of a fragment's measured cut bits concatenates its exiting groups'
wires in ascending group order (``TreeFragment.cut_local``), and the flat
layout of its preparation wires concatenates its entering groups' wires
the same way (``TreeFragment.prep_local``) — the record layouts every
downstream consumer — caches, execution, golden detection and the
reconstruction — shares.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.cutting.cut import CutSpec
from repro.cutting.fragments import bipartition
from repro.exceptions import CutError

__all__ = [
    "FragmentTree",
    "TreeFragment",
    "partition_tree",
]


@dataclass
class TreeFragment:
    """One node of a fragment tree.

    Attributes
    ----------
    circuit:
        The fragment's local circuit.
    index:
        Node position in the tree's topological order (root = 0).
    prep_local:
        Local qubits receiving preparation states — the **flat** layout:
        each entering group's wires (in cut order) concatenated in
        ascending group order (empty at the root).  Preparation slot ``k``
        of a variant's init tuple addresses qubit ``k`` of this list.
    cut_local:
        Local qubits measured in tomography bases — the **flat** layout:
        each exiting group's wires (in cut order) concatenated in ascending
        group order.  Cut bit ``k`` of a measurement record is bit ``k`` of
        this list.
    out_local:
        Local output qubits (everything not in ``cut_local``), ordered by
        original label.
    out_original:
        Original-circuit labels of the outputs (same order as ``out_local``).
    in_group:
        Id of the single entering cut group (``None`` at the root **and**
        at multi-parent DAG nodes — the legacy tree-only field, kept so
        every historical consumer keeps reading the value it always did).
    in_groups:
        Ids of all entering cut groups, ascending (empty at the root; more
        than one makes this a joint-prep DAG node).
    prep_local_by_group:
        Entering group id → that group's local wires in cut order
        (concatenating them in ``in_groups`` order yields ``prep_local``).
    meas_groups:
        Ids of the exiting cut groups, ascending (empty at a leaf).
    cut_local_by_group:
        Exiting group id → that group's local wires in cut order
        (concatenating them in ``meas_groups`` order yields ``cut_local``).
    parent:
        Parent node index (filled in by :class:`FragmentTree`; the lowest
        entering group's source at a multi-parent node).
    """

    circuit: Circuit
    index: int
    prep_local: list[int]
    cut_local: list[int]
    out_local: list[int]
    out_original: list[int]
    in_group: "int | None" = None
    meas_groups: list[int] = field(default_factory=list)
    cut_local_by_group: dict[int, list[int]] = field(default_factory=dict)
    parent: "int | None" = field(default=None, repr=False)
    in_groups: list[int] = field(default_factory=list)
    prep_local_by_group: dict[int, list[int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._sync_entering()

    def _sync_entering(self) -> None:
        """Reconcile the legacy ``in_group`` field with the general form.

        Constructors predating DAG support pass ``in_group=``/``prep_local=``
        only; the general form is derived from them (and vice versa for a
        one-entry ``in_groups``).  Idempotent — also run by
        :meth:`FragmentTree._link` so post-construction mutation of
        ``in_group`` (the chain constructor's compatibility path) is
        picked up.
        """
        if self.in_group is not None:
            self.in_groups = [self.in_group]
            self.prep_local_by_group = {self.in_group: list(self.prep_local)}
        else:
            self.in_groups = sorted(self.in_groups)
            if len(self.in_groups) == 1:
                self.in_group = self.in_groups[0]
                if not self.prep_local_by_group:
                    self.prep_local_by_group = {
                        self.in_group: list(self.prep_local)
                    }

    @property
    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    @property
    def n_out(self) -> int:
        return len(self.out_local)

    @property
    def num_prep(self) -> int:
        return len(self.prep_local)

    @property
    def num_meas(self) -> int:
        return len(self.cut_local)

    @property
    def num_children(self) -> int:
        return len(self.meas_groups)

    @property
    def num_parents(self) -> int:
        return len(self.in_groups)

    def group_offset(self, group: int) -> int:
        """Position of ``group``'s first cut bit in the flat ``cut_local``."""
        off = 0
        for h in self.meas_groups:
            if h == group:
                return off
            off += len(self.cut_local_by_group[h])
        raise CutError(f"group {group} does not exit fragment {self.index}")

    def prep_offset(self, group: int) -> int:
        """Position of ``group``'s first prep slot in the flat ``prep_local``."""
        off = 0
        for h in self.in_groups:
            if h == group:
                return off
            off += len(self.prep_local_by_group[h])
        raise CutError(f"group {group} does not enter fragment {self.index}")


@dataclass
class FragmentTree:
    """A rooted tree of fragments connected by cut groups."""

    #: the fragments in topological order (root first, parents before children)
    fragments: list[TreeFragment]
    #: number of cuts per group, in spec order
    group_sizes: list[int]
    #: the cut specs the tree was built from (original-circuit coordinates)
    specs: list[CutSpec] = field(repr=False, default_factory=list)
    #: group id → node measuring that group's wires (derived)
    group_src: list[int] = field(init=False, repr=False)
    #: group id → node receiving that group's preparations (derived)
    group_dst: list[int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._link()

    def _link(self) -> None:
        if len(self.fragments) < 2:
            raise CutError("a fragment tree needs at least two fragments")
        G = len(self.group_sizes)
        if G < len(self.fragments) - 1:
            raise CutError(
                "a fragment tree needs at least one cut group per non-root "
                "fragment"
            )
        src: list = [None] * G
        dst: list = [None] * G
        for i, frag in enumerate(self.fragments):
            frag._sync_entering()
            if i == 0 and frag.in_groups:
                raise CutError(
                    "the root fragment (node 0) may not have an entering "
                    "cut group"
                )
            flat_prep: list[int] = []
            for g in frag.in_groups:
                if not 0 <= g < G:
                    raise CutError(f"entering group {g} out of range")
                if dst[g] is not None:
                    raise CutError(
                        f"cut group {g} enters two fragments; a group's "
                        "preparation wires live in a single fragment"
                    )
                dst[g] = i
                wires = frag.prep_local_by_group.get(g)
                if wires is None or len(wires) != self.group_sizes[g]:
                    raise CutError(
                        f"fragment {i} group {g} has "
                        f"{0 if wires is None else len(wires)} preparation "
                        f"wires, expected {self.group_sizes[g]}"
                    )
                flat_prep.extend(wires)
            if flat_prep != list(frag.prep_local):
                raise CutError(
                    f"fragment {i}: prep_local is not the group-ordered "
                    "concatenation of prep_local_by_group"
                )
            flat: list[int] = []
            for g in frag.meas_groups:
                if not 0 <= g < G:
                    raise CutError(f"exiting group {g} out of range")
                if src[g] is not None:
                    raise CutError(
                        f"cut group {g} exits two fragments; the structure "
                        "is not a tree"
                    )
                src[g] = i
                wires = frag.cut_local_by_group.get(g)
                if wires is None or len(wires) != self.group_sizes[g]:
                    raise CutError(
                        f"fragment {i} group {g} wire list mismatches the "
                        f"group size {self.group_sizes[g]}"
                    )
                flat.extend(wires)
            if flat != list(frag.cut_local):
                raise CutError(
                    f"fragment {i}: cut_local is not the group-ordered "
                    "concatenation of cut_local_by_group"
                )
        for g in range(G):
            if src[g] is None or dst[g] is None:
                raise CutError(f"cut group {g} is not attached to the tree")
            if not src[g] < dst[g]:
                raise CutError(
                    f"cut group {g}: source node {src[g]} must precede "
                    f"destination node {dst[g]} (topological order); the "
                    "fragment graph is cyclic or mis-ordered"
                )
        # one connected component: union-find over the group edges (a
        # multi-source DAG is fine, a disconnected forest is not)
        uf = list(range(len(self.fragments)))

        def find(x: int) -> int:
            while uf[x] != x:
                uf[x] = uf[uf[x]]
                x = uf[x]
            return x

        for g in range(G):
            uf[find(src[g])] = find(dst[g])
        root = find(0)
        for i in range(len(self.fragments)):
            if find(i) != root:
                raise CutError(
                    f"fragment {i} is disconnected from the rest of the "
                    "fragment graph"
                )
        self.group_src = src
        self.group_dst = dst
        for i, frag in enumerate(self.fragments):
            frag.parent = (
                src[frag.in_groups[0]] if frag.in_groups else None
            )

    # ------------------------------------------------------------------
    @property
    def num_fragments(self) -> int:
        return len(self.fragments)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    @property
    def total_cuts(self) -> int:
        return sum(self.group_sizes)

    @property
    def is_chain(self) -> bool:
        """True when every group links node ``g`` to node ``g + 1``."""
        return all(s == g for g, s in enumerate(self.group_src)) and all(
            d == g + 1 for g, d in enumerate(self.group_dst)
        )

    @property
    def is_tree(self) -> bool:
        """True when this is a single-root tree (one entering group per
        non-root fragment, no extra sources).

        The pure-tree case runs the historical leaves-to-root contraction
        kernels bit-identically; joint-prep and multi-source DAG nodes
        route through the planned network contraction (see
        :mod:`repro.cutting.contraction`).
        """
        return all(
            f.num_parents == (1 if i else 0)
            for i, f in enumerate(self.fragments)
        )

    def children(self, index: int) -> list[int]:
        """Child node indices of one fragment, in exiting-group order."""
        return [self.group_dst[g] for g in self.fragments[index].meas_groups]

    def parents(self, index: int) -> list[int]:
        """Parent node indices of one fragment, in entering-group order."""
        return [self.group_src[g] for g in self.fragments[index].in_groups]

    def output_order(self) -> list[int]:
        """Original qubit labels, node by node, root first."""
        out: list[int] = []
        for frag in self.fragments:
            out.extend(frag.out_original)
        return out

    def describe(self) -> str:
        widths = "+".join(str(f.num_qubits) for f in self.fragments)
        edges = ",".join(
            f"{self.group_src[g]}→{self.group_dst[g]}(K={k})"
            for g, k in enumerate(self.group_sizes)
        )
        return (
            f"FragmentTree(N={self.num_fragments}, widths {widths}q, "
            f"groups [{edges}])"
        )


# ---------------------------------------------------------------------------
# worklist bipartition
# ---------------------------------------------------------------------------


@dataclass
class _Piece:
    """One not-yet-final fragment of the worklist partition.

    ``wire_orig``/``inst_orig`` map piece-local coordinates back to the
    original circuit; ``entering`` carries the local wires (cut order) of
    every group preparing into this piece, ``exiting`` the local wires of
    every group measured on this piece.
    """

    circuit: Circuit
    wire_orig: list[int]
    inst_orig: list[int]
    entering: dict[int, list[int]]
    exiting: dict[int, list[int]]


def partition_tree(circuit: Circuit, specs: Sequence[CutSpec]) -> FragmentTree:
    """Split ``circuit`` into a ``len(specs) + 1``-fragment tree or DAG.

    Every spec is expressed in **original-circuit** coordinates; each is
    applied to the piece currently holding its cut points, so earlier
    groups' fragments can branch — the upstream half of one split may be
    split again by a later spec, giving its node several child groups —
    and earlier groups' *downstream* fragments can merge destinations: a
    piece already receiving preparations may be cut so that a second group
    prepares into the same half, giving that node several entering (joint
    prep) groups and the structure a DAG shape.  Chains come out
    bit-identical to the repeated-bipartition cascade of
    :func:`~repro.cutting.chain.partition_chain` (which now delegates
    here), and pure trees to the pre-DAG engine.
    """
    specs = list(specs)
    if not specs:
        raise CutError("partition_tree needs at least one cut spec")
    pieces = [
        _Piece(
            circuit=circuit,
            wire_orig=list(range(circuit.num_qubits)),
            inst_orig=list(range(len(circuit))),
            entering={},
            exiting={},
        )
    ]
    done: set[int] = set()
    for g in range(len(specs)):
        if g in done:
            continue
        j = _find_piece(pieces, specs[g], g)
        group_set = _cocut_groups(pieces[j], specs, g, done)
        pieces[j : j + 1] = _cut_piece(
            pieces[j], {h: specs[h] for h in group_set}
        )
        done.update(group_set)
    pieces = [c for p in pieces for c in _split_components(p)]
    return _assemble(pieces, specs)


def _uncut_crossing_wires(
    circuit: Circuit, spec: CutSpec, reserved: "set[int]" = frozenset()
) -> set[int]:
    """Wires a spec's bipartition frontier would sever without cutting.

    Replays :func:`~repro.cutting.fragments.bipartition`'s closure —
    dependency reachability plus whole-wire absorption — but keeps the
    cut anchors' *ancestors* pinned upstream (absorbing one would later
    fail the "cut lies downstream" check).  A wire holding both a pinned
    gate and a downstream gate cannot be absorbed and must be cut: on a
    DAG these are exactly the wires of the other groups entering the
    same destination, which must be co-cut in the same split.

    ``reserved`` wires are additionally barred from absorption (flagged
    crossing as soon as they hold a downstream gate): a sibling group's
    upstream block placed *after* the anchors is not an ancestor, so
    plain absorption would silently swallow it and mis-attribute the
    frontier to whatever third wire that block touches — the second
    detection pass of :func:`_cocut_groups` reserves every pending
    group's cut wires to surface the true co-cut candidates instead.
    """
    from repro.circuits.dag import CircuitDag

    dag = CircuitDag(circuit)
    down: set[int] = set()
    for cut in spec.cuts:
        down |= dag.downstream_of_cut(cut.wire, cut.gate_index)
    must_up = {c.gate_index for c in spec.cuts}
    stack = list(must_up)
    while stack:
        for p in dag.predecessors(stack.pop()):
            if p not in must_up:
                must_up.add(p)
                stack.append(p)
    cut_wires = {c.wire for c in spec.cuts}
    segs = {w: dag.wire_segments(w) for w in range(circuit.num_qubits)}
    crossing: set[int] = set()
    while True:
        # dependency closure: one topological pass per round
        for node in dag.topological_order():
            if node not in down and any(
                p in down for p in dag.predecessors(node)
            ):
                down.add(node)
        added = False
        for w, seq in segs.items():
            if w in cut_wires or w in crossing:
                continue
            if not any(i in down for i in seq):
                continue
            if any(i in must_up for i in seq) or w in reserved:
                crossing.add(w)  # unabsorbable: the wire needs a cut
            else:
                for i in seq:
                    if i not in down:
                        down.add(i)
                        added = True
        if not added:
            return crossing


def _cocut_groups(
    piece: _Piece, specs: list[CutSpec], g: int, done: set[int]
) -> list[int]:
    """Groups that must be severed in the same split as group ``g``.

    On trees and chains a single group always forms a complete frontier
    and this returns ``[g]`` — the historical one-group-per-split
    cascade.  On a DAG, sibling groups feeding the same joint-prep
    destination cross each other's frontier; the fixpoint loop pulls
    every pending group whose cut wires the current frontier severs into
    the split, so one ``bipartition`` call cuts the full frontier.
    """
    chosen = [g]
    if all(h in done or h == g for h in range(len(specs))):
        return chosen  # no pending group could join the frontier
    while True:
        combined = CutSpec(
            tuple(
                pt
                for h in chosen
                for pt in _translate_spec(
                    specs[h], h, piece.wire_orig, piece.inst_orig
                ).cuts
            )
        )
        crossing = _uncut_crossing_wires(piece.circuit, combined)
        if not crossing:
            return chosen
        added = False
        for h in range(len(specs)):
            if h in done or h in chosen:
                continue
            try:
                loc = _translate_spec(
                    specs[h], h, piece.wire_orig, piece.inst_orig
                )
            except CutError:
                continue
            if any(c.wire in crossing for c in loc.cuts):
                chosen.append(h)
                added = True
        if not added:
            # second pass: a sibling block placed after the anchors is no
            # ancestor, so pass one absorbed it and blamed a third wire.
            # Re-detect with every pending group's cut wires barred from
            # absorption and co-cut, per crossing wire, the *earliest*
            # pending cut on it (later cuts on the same wire belong to
            # later cascade rounds).
            pending = {}
            for h in range(len(specs)):
                if h in done or h in chosen:
                    continue
                try:
                    pending[h] = _translate_spec(
                        specs[h], h, piece.wire_orig, piece.inst_orig
                    )
                except CutError:
                    continue
            reserved = {
                c.wire for loc in pending.values() for c in loc.cuts
            }
            crossing = _uncut_crossing_wires(
                piece.circuit, combined, reserved
            )
            for w in sorted(crossing):
                best = None
                for h, loc in sorted(pending.items()):
                    for c in loc.cuts:
                        if c.wire == w and (
                            best is None or c.gate_index < best[1]
                        ):
                            best = (h, c.gate_index)
                if best is not None and best[0] not in chosen:
                    chosen.append(best[0])
                    added = True
            if not added:
                # no pending group covers the crossing wires — hand the
                # piece to bipartition, whose frontier diagnostics are
                # the loud error
                return chosen
        chosen.sort()


def _split_components(piece: _Piece) -> "list[_Piece]":
    """Split a piece into its weakly connected components.

    Co-cutting a DAG frontier can strand two gate-disjoint blocks in one
    half (e.g. both middle nodes of a diamond); each becomes its own
    fragment.  Wires are connected through shared gates and through
    joint membership in one group's wire list (a group prepares into /
    measures out of a single fragment); idle wires with neither gates nor
    group membership stay with the first component.  The split happens
    **only** when every gated or grouped component holds an entering
    group of its own — each part is then a well-formed non-root fragment.
    Anything else (in particular every piece the historical tree/chain
    cascade produces, however loosely its gates couple internally) stays
    one fragment, exactly as before.  Components are ordered by earliest
    original instruction — no group connects two components of the same
    piece, so any order is topologically sound.
    """
    nw = piece.circuit.num_qubits
    parent = list(range(nw))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        parent[find(a)] = find(b)

    for inst in piece.circuit:
        qs = list(inst.qubits)
        for a, b in zip(qs, qs[1:]):
            union(a, b)
    for wires in list(piece.entering.values()) + list(
        piece.exiting.values()
    ):
        for a, b in zip(wires, wires[1:]):
            union(a, b)
    roots = sorted({find(w) for w in range(nw)})
    if len(roots) == 1:
        return [piece]
    comp_wires = {
        r: [w for w in range(nw) if find(w) == r] for r in roots
    }
    comp_insts: dict[int, list[int]] = {r: [] for r in roots}
    for idx, inst in enumerate(piece.circuit):
        comp_insts[find(inst.qubits[0])].append(idx)
    group_roots = {
        find(ws[0])
        for ws in list(piece.entering.values())
        + list(piece.exiting.values())
        if ws
    }
    entering_roots = {
        find(ws[0]) for ws in piece.entering.values() if ws
    }
    live = [r for r in roots if comp_insts[r] or r in group_roots]
    if len(live) <= 1 or any(r not in entering_roots for r in live):
        return [piece]

    def comp_key(r: int):
        if comp_insts[r]:
            return (0, piece.inst_orig[comp_insts[r][0]])
        return (1, min(piece.wire_orig[w] for w in comp_wires[r]))

    live.sort(key=comp_key)
    idle = [w for r in roots if r not in live for w in comp_wires[r]]
    comp_wires[live[0]] = sorted(comp_wires[live[0]] + idle)
    out = []
    for r in live:
        wires = comp_wires[r]
        wmap = {w: i for i, w in enumerate(wires)}
        sub = Circuit(len(wires), name=piece.circuit.name)
        for idx in comp_insts[r]:
            sub.append(piece.circuit[idx].remap(wmap))
        out.append(
            _Piece(
                circuit=sub,
                wire_orig=[piece.wire_orig[w] for w in wires],
                inst_orig=[piece.inst_orig[i] for i in comp_insts[r]],
                entering={
                    h: [wmap[w] for w in ws]
                    for h, ws in piece.entering.items()
                    if ws and find(ws[0]) == r
                },
                exiting={
                    h: [wmap[w] for w in ws]
                    for h, ws in piece.exiting.items()
                    if ws and find(ws[0]) == r
                },
            )
        )
    return out


def _find_piece(pieces: list[_Piece], spec: CutSpec, stage: int) -> int:
    """Index of the piece holding every cut point of one spec."""
    owners: set[int] = set()
    for c in spec.cuts:
        owner = next(
            (i for i, p in enumerate(pieces) if c.gate_index in p.inst_orig),
            None,
        )
        if owner is None:
            raise CutError(
                f"cut group {stage}: instruction {c.gate_index} was consumed "
                "by an earlier fragment"
            )
        owners.add(owner)
    if len(owners) > 1:
        raise CutError(
            f"cut group {stage}: cut points span {len(owners)} fragments; "
            "every group must sever wires of a single fragment"
        )
    return owners.pop()


def _translate_spec(
    spec: CutSpec, stage: int, wire_orig: list[int], inst_orig: list[int]
) -> CutSpec:
    """Re-express an original-coordinate spec in piece-local coordinates."""
    from repro.cutting.cut import CutPoint

    wire_map = {orig: loc for loc, orig in enumerate(wire_orig)}
    inst_map = {orig: loc for loc, orig in enumerate(inst_orig)}
    points = []
    for c in spec.cuts:
        if c.wire not in wire_map:
            raise CutError(
                f"cut group {stage}: wire {c.wire} was consumed by an "
                "earlier fragment"
            )
        if c.gate_index not in inst_map:
            raise CutError(
                f"cut group {stage}: instruction {c.gate_index} was consumed "
                "by an earlier fragment"
            )
        points.append(CutPoint(wire_map[c.wire], inst_map[c.gate_index]))
    return CutSpec(tuple(points))


def _carry_groups(
    piece: _Piece, q_up: "list[int]", q_down: "list[int]", label: str
):
    """Place a piece's earlier groups in the two halves of one split.

    ``q_up``/``q_down`` are the halves' ascending piece-local wires.
    Earlier groups' wires must land whole in one half: a preparation wire
    lives where the wire *starts* (the up half when the split re-cuts it),
    a measurement wire where it *ends* (the down half in that case).
    Returns ``(up_exiting, down_exiting, up_entering, down_entering)`` in
    half-local wires, or raises :class:`CutError` when a group would be
    split across the halves.
    """
    up_map = {w: i for i, w in enumerate(q_up)}
    down_map = {w: i for i, w in enumerate(q_down)}
    up_exiting: dict[int, list[int]] = {}
    down_exiting: dict[int, list[int]] = {}
    for h, wires in piece.exiting.items():
        # measure end of a wire re-cut by this split lives in the down half
        locs = {"down" if w in down_map else "up" for w in wires}
        if len(locs) > 1:
            raise CutError(
                f"{label} splits the measured wires of cut group {h} "
                "across two fragments; the specs do not induce a tree"
            )
        if locs == {"up"}:
            up_exiting[h] = [up_map[w] for w in wires]
        else:
            down_exiting[h] = [down_map[w] for w in wires]

    up_entering: dict[int, list[int]] = {}
    down_entering: dict[int, list[int]] = {}
    for h, wires in piece.entering.items():
        # a preparation applies at the wire start, which stays in the up
        # half when this split re-cuts the wire
        locs = {"up" if w in up_map else "down" for w in wires}
        if len(locs) > 1:
            raise CutError(
                f"{label} splits the preparation wires of cut group "
                f"{h} across two fragments; the specs do not induce a "
                "fragment DAG"
            )
        if locs == {"up"}:
            up_entering[h] = [up_map[w] for w in wires]
        else:
            # group h's preparations land whole in the down half: that
            # fragment now receives wires from h and the new groups — a
            # joint-prep DAG node (this used to raise "a DAG, not a tree")
            down_entering[h] = [down_map[w] for w in wires]
    return up_exiting, down_exiting, up_entering, down_entering


def _cut_piece(
    piece: _Piece, specs_by_group: "dict[int, CutSpec]"
) -> list[_Piece]:
    """Bipartition one piece along one or more co-cut groups at once.

    The combined spec concatenates the groups' cut points in ascending
    group order (one frontier, one :func:`bipartition` call); the flat
    cut-wire lists slice back into per-group lists positionally; earlier
    groups move with :func:`_carry_groups`.
    """
    order = sorted(specs_by_group)
    local = {
        h: _translate_spec(
            specs_by_group[h], h, piece.wire_orig, piece.inst_orig
        )
        for h in order
    }
    label = "cut group " + ", ".join(str(h) for h in order)
    combined = CutSpec(tuple(pt for h in order for pt in local[h].cuts))
    pair = bipartition(piece.circuit, combined)
    cut_wires = {c.wire for c in combined.cuts}
    q_up = sorted(set(pair.up_out_original) | cut_wires)
    up_exiting, down_exiting, up_entering, down_entering = _carry_groups(
        piece, q_up, pair.down_out_original, label
    )
    down_nodes = set(pair.down_node_indices)
    up_nodes = [i for i in range(len(piece.circuit)) if i not in down_nodes]
    off = 0
    for h in order:
        k = local[h].num_cuts
        up_exiting[h] = list(pair.up_cut_local[off : off + k])
        down_entering[h] = list(pair.down_cut_local[off : off + k])
        off += k

    up_piece = _Piece(
        circuit=pair.upstream,
        wire_orig=[piece.wire_orig[w] for w in q_up],
        inst_orig=[piece.inst_orig[i] for i in up_nodes],
        entering=up_entering,
        exiting=up_exiting,
    )
    down_piece = _Piece(
        circuit=pair.downstream,
        wire_orig=[piece.wire_orig[w] for w in pair.down_out_original],
        inst_orig=[piece.inst_orig[i] for i in pair.down_node_indices],
        entering=down_entering,
        exiting=down_exiting,
    )
    return [up_piece, down_piece]


def _assemble(pieces: list[_Piece], specs: list[CutSpec]) -> FragmentTree:
    fragments: list[TreeFragment] = []
    for i, p in enumerate(pieces):
        meas_groups = sorted(p.exiting)
        by_group = {h: list(p.exiting[h]) for h in meas_groups}
        cut_flat = [w for h in meas_groups for w in by_group[h]]
        cut_set = set(cut_flat)
        out_local = [
            q for q in range(p.circuit.num_qubits) if q not in cut_set
        ]
        in_groups = sorted(p.entering)
        prep_by_group = {h: list(p.entering[h]) for h in in_groups}
        fragments.append(
            TreeFragment(
                circuit=p.circuit,
                index=i,
                prep_local=[w for h in in_groups for w in prep_by_group[h]],
                cut_local=cut_flat,
                out_local=out_local,
                out_original=[p.wire_orig[q] for q in out_local],
                in_group=in_groups[0] if len(in_groups) == 1 else None,
                meas_groups=meas_groups,
                cut_local_by_group=by_group,
                in_groups=in_groups,
                prep_local_by_group=prep_by_group,
            )
        )
    return FragmentTree(
        fragments=fragments,
        group_sizes=[spec.num_cuts for spec in specs],
        specs=list(specs),
    )
