"""Multi-cut scaling ablation (paper §II-B's complexity claims).

The paper derives — but does not measure — the scaling
``O(4^{K_r} 3^{K_g})`` reconstruction terms and ``O(6^{K_r} 4^{K_g})``
circuit evaluations for ``K = K_r + K_g`` cuts.  This experiment measures
it: for each ``K`` and each number of golden cuts ``K_g``, build a circuit
whose cuts are all golden by construction, mark only ``K_g`` of them, and
record the counted reconstruction rows and fragment variants plus the
measured reconstruction wall time on exact fragment data.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import Circuit
from repro.circuits.random import random_circuit, random_real_circuit
from repro.core.neglect import tree_reduced_variants
from repro.cutting.cut import CutPoint, CutSpec
from repro.cutting.execution import exact_tree_data
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.cutting.tree import partition_tree
from repro.utils.rng import as_generator
from repro.utils.timing import Stopwatch

__all__ = [
    "chain_cut_circuit",
    "dag_cut_circuit",
    "ghz_star_circuit",
    "ghz_star_truth",
    "golden_chain_circuit",
    "golden_tree_circuit",
    "multi_cut_golden_circuit",
    "run_scaling",
    "tree_cut_circuit",
]


def _tree_children(parents: "list[int]") -> dict[int, list[int]]:
    """Builder-node → ordered child builder-nodes, validating the shape."""
    N = len(parents) + 1
    children: dict[int, list[int]] = {i: [] for i in range(N)}
    for child in range(1, N):
        p = parents[child - 1]
        if not 0 <= p < child:
            raise ValueError(
                f"parents[{child - 1}] = {p} must name an earlier node "
                f"(0..{child - 1})"
            )
        children[p].append(child)
    return children


def multi_cut_golden_circuit(
    num_cuts: int,
    extra_up: int = 1,
    extra_down: int = 1,
    depth: int = 2,
    seed: "int | None" = None,
) -> tuple[Circuit, CutSpec]:
    """A circuit whose ``K`` cut wires are all Y-golden.

    Upstream: a *real* random block on ``extra_up + K`` qubits (so the state
    before every cut is real → every cut is Y-golden for diagonal
    observables).  Downstream: an arbitrary random block on the ``K`` cut
    wires plus ``extra_down`` fresh qubits.
    """
    rng = as_generator(seed)
    n_up = extra_up + num_cuts
    n = n_up + extra_down
    cut_wires = list(range(extra_up, extra_up + num_cuts))
    qc = Circuit(n, name=f"scaling[K={num_cuts}]")
    qc = qc.compose(random_real_circuit(n_up, depth, seed=rng), qubits=list(range(n_up)))
    for w in cut_wires:  # anchor every cut wire upstream
        if not any(w in inst.qubits for inst in qc):
            qc.ry(float(rng.uniform(0, 6.28)), w)
    boundary = {w: max(i for i, inst in enumerate(qc) if w in inst.qubits) for w in cut_wires}
    down_qubits = cut_wires + list(range(n_up, n))
    # entangling ladder: every cut wire continues and the downstream
    # register is coupled, pinning the bipartition shape
    for a, b in zip(down_qubits, down_qubits[1:]):
        qc.cx(a, b)
    if len(down_qubits) == 1:
        qc.rx(float(rng.uniform(0, 6.28)), down_qubits[0])
    qc = qc.compose(random_circuit(len(down_qubits), depth, seed=rng), qubits=down_qubits)
    spec = CutSpec(tuple(CutPoint(w, boundary[w]) for w in cut_wires))
    return qc, spec


def chain_cut_circuit(
    num_fragments: int,
    cuts_per_group: "int | list[int]" = 1,
    fresh_per_fragment: int = 1,
    depth: int = 2,
    seed: "int | None" = None,
    real_blocks: bool = False,
):
    """A CutQC-style chain circuit with ``num_fragments − 1`` cut groups.

    Fragment block ``i`` acts on ``fresh_per_fragment`` fresh qubits plus
    the ``cuts_per_group[i-1]`` wires entering from block ``i − 1``; groups
    only share wires with their immediate neighbours, so the cut specs
    induce a genuine chain.  Returns ``(circuit, specs)`` with one
    :class:`~repro.cutting.cut.CutSpec` per group, all in original-circuit
    coordinates — ready for :func:`repro.cutting.chain.partition_chain`.

    ``real_blocks=True`` keeps every block real-amplitude, making every cut
    wire Y-golden (the chain analogue of :func:`multi_cut_golden_circuit`).
    """
    if num_fragments < 2:
        raise ValueError("a chain needs at least two fragments")
    if isinstance(cuts_per_group, int):
        cuts_per_group = [cuts_per_group] * (num_fragments - 1)
    if len(cuts_per_group) != num_fragments - 1:
        raise ValueError("need one cut count per adjacent fragment pair")
    rng = as_generator(seed)
    block = random_real_circuit if real_blocks else random_circuit

    # qubit layout: block i receives the K_{i-1} carried wires (its first
    # wires) and owns max(fresh, K_i) new ones; its *last* K_i wires — all
    # inside the new part, so incoming and outgoing sets stay disjoint —
    # carry on into block i + 1.
    widths = []
    starts = []
    n = 0
    for i in range(num_fragments):
        carry_in = cuts_per_group[i - 1] if i > 0 else 0
        carry_out = cuts_per_group[i] if i < num_fragments - 1 else 0
        width = carry_in + max(fresh_per_fragment, carry_out)
        starts.append(n - carry_in)
        widths.append(width)
        n += width - carry_in
    qc = Circuit(n, name=f"chain[N={num_fragments}]")

    specs = []
    for i in range(num_fragments):
        qubits = list(range(starts[i], starts[i] + widths[i]))
        before = len(qc)
        # entangling ladder: couples the entering wires through the whole
        # block, pinning the intended chain shape (without it a random
        # block may leave wires uncoupled and the bipartition cascade would
        # assign them elsewhere); cx is real, so Y-goldenness survives
        for a, b in zip(qubits, qubits[1:]):
            qc.cx(a, b)
        qc = qc.compose(block(len(qubits), depth, seed=rng), qubits=qubits)
        if i < num_fragments - 1:
            cut_wires = qubits[-cuts_per_group[i] :]
            for w in cut_wires:  # every cut wire needs an anchor in block i
                if not any(
                    w in qc[j].qubits for j in range(before, len(qc))
                ):
                    angle = float(rng.uniform(0, 6.28))
                    if real_blocks:
                        qc.ry(angle, w)
                    else:
                        qc.rx(angle, w)
            boundary = {
                w: max(j for j, inst in enumerate(qc) if w in inst.qubits)
                for w in cut_wires
            }
            specs.append(
                CutSpec(tuple(CutPoint(w, boundary[w]) for w in cut_wires))
            )
    return qc, specs


def tree_cut_circuit(
    parents: "list[int]",
    cuts_per_group: "int | list[int]" = 1,
    fresh_per_fragment: int = 1,
    depth: int = 2,
    seed: "int | None" = None,
    real_blocks: bool = False,
):
    """A branched CutQC-style circuit with an explicit fragment-tree shape.

    ``parents[g]`` names the builder-node feeding cut group ``g`` into
    builder-node ``g + 1`` (so ``parents = [0, 0]`` is a Y — one root with
    two children — and ``[0, 0, 1, 1]`` a 5-node two-level tree).  Block
    ``i`` acts on the wires entering from its parent plus
    ``max(fresh_per_fragment, outgoing cuts)`` fresh qubits; each child
    group's cut wires are distinct fresh qubits of the parent block, so
    sibling subtrees only share wires through their common ancestor and
    the specs induce a genuine tree.  Returns ``(circuit, specs)`` with
    one :class:`~repro.cutting.cut.CutSpec` per group in original-circuit
    coordinates — ready for :func:`repro.cutting.tree.partition_tree`.
    ``parents = [0, 1, 2, ...]`` degenerates to a chain.

    ``real_blocks=True`` keeps every block real-amplitude, making every
    cut wire Y-golden (the tree analogue of
    :func:`multi_cut_golden_circuit`).
    """
    parents = list(parents)
    if not parents:
        raise ValueError("a tree needs at least one cut group")
    N = len(parents) + 1
    children = _tree_children(parents)
    if isinstance(cuts_per_group, int):
        cuts_per_group = [cuts_per_group] * (N - 1)
    if len(cuts_per_group) != N - 1:
        raise ValueError("need one cut count per tree edge")
    rng = as_generator(seed)
    block = random_real_circuit if real_blocks else random_circuit

    # fresh-qubit allocation: node i owns max(fresh, outgoing cuts) wires
    fresh_of: dict[int, list[int]] = {}
    n = 0
    for i in range(N):
        total_out = sum(cuts_per_group[c - 1] for c in children[i])
        width = max(fresh_per_fragment, total_out)
        fresh_of[i] = list(range(n, n + width))
        n += width
    qc = Circuit(n, name=f"tree[N={N}]")

    edge_wires: dict[int, list[int]] = {}  # child node -> entering wires
    specs_by_child: dict[int, CutSpec] = {}
    for i in range(N):
        qubits = edge_wires.get(i, []) + fresh_of[i]
        before = len(qc)
        # entangling ladder: couples the entering wires through the whole
        # block, pinning the intended tree shape; cx is real, so
        # Y-goldenness survives real_blocks
        for a, b in zip(qubits, qubits[1:]):
            qc.cx(a, b)
        qc = qc.compose(block(len(qubits), depth, seed=rng), qubits=qubits)
        # each child group takes distinct wires off the end of the fresh set
        pos = len(fresh_of[i])
        for c in reversed(children[i]):
            k = cuts_per_group[c - 1]
            edge_wires[c] = fresh_of[i][pos - k : pos]
            pos -= k
        for c in children[i]:
            for w in edge_wires[c]:  # every cut wire needs an anchor here
                if not any(
                    w in qc[j].qubits for j in range(before, len(qc))
                ):
                    angle = float(rng.uniform(0, 6.28))
                    if real_blocks:
                        qc.ry(angle, w)
                    else:
                        qc.rx(angle, w)
            boundary = {
                w: max(j for j, inst in enumerate(qc) if w in inst.qubits)
                for w in edge_wires[c]
            }
            specs_by_child[c] = CutSpec(
                tuple(CutPoint(w, boundary[w]) for w in edge_wires[c])
            )
    return qc, [specs_by_child[c] for c in range(1, N)]


def dag_cut_circuit(
    edges: "list[tuple[int, int]]",
    cuts_per_group: "int | list[int]" = 1,
    fresh_per_fragment: int = 1,
    depth: int = 2,
    seed: "int | None" = None,
    real_blocks: bool = False,
):
    """A branched circuit whose cut specs induce an explicit fragment DAG.

    The DAG generalisation of :func:`tree_cut_circuit`: ``edges[g] =
    (src, dst)`` feeds cut group ``g`` from builder-node ``src`` into
    builder-node ``dst`` (``src < dst``; nodes are ``0..max(dst)``).  A
    node with several in-edges becomes a *joint-prep* fragment — exactly
    the shape the old tree engine rejected with "a DAG, not a tree".
    Block ``i`` acts on the wires entering from all of its parents plus
    ``max(fresh_per_fragment, outgoing cut wires)`` fresh qubits; every
    out-edge takes distinct fresh qubits, so wires only meet where the
    DAG says they do.  Returns ``(circuit, specs)`` with one
    :class:`~repro.cutting.cut.CutSpec` per edge in original-circuit
    coordinates — ready for :func:`repro.cutting.tree.partition_tree`.
    ``edges = [(i, i + 1), ...]`` degenerates to a chain and a
    single-parent edge set to a tree.

    ``real_blocks=True`` keeps every block real-amplitude, making every
    cut wire Y-golden.
    """
    edges = [tuple(e) for e in edges]
    if not edges:
        raise ValueError("a DAG needs at least one cut group")
    N = max(dst for _, dst in edges) + 1
    for g, (src, dst) in enumerate(edges):
        if not 0 <= src < dst < N:
            raise ValueError(
                f"edges[{g}] = {(src, dst)} must satisfy 0 <= src < dst"
            )
    if isinstance(cuts_per_group, int):
        cuts_per_group = [cuts_per_group] * len(edges)
    if len(cuts_per_group) != len(edges):
        raise ValueError("need one cut count per edge")
    in_edges: dict[int, list[int]] = {i: [] for i in range(N)}
    out_edges: dict[int, list[int]] = {i: [] for i in range(N)}
    for g, (src, dst) in enumerate(edges):
        out_edges[src].append(g)
        in_edges[dst].append(g)
    rng = as_generator(seed)
    block = random_real_circuit if real_blocks else random_circuit

    # fresh-qubit allocation: node i owns max(fresh, outgoing cuts) wires
    fresh_of: dict[int, list[int]] = {}
    n = 0
    for i in range(N):
        total_out = sum(cuts_per_group[g] for g in out_edges[i])
        width = max(fresh_per_fragment, total_out)
        fresh_of[i] = list(range(n, n + width))
        n += width
    qc = Circuit(n, name=f"dag[N={N}]")

    edge_wires: dict[int, list[int]] = {}  # edge id -> its cut wires
    specs_by_edge: dict[int, CutSpec] = {}
    for i in range(N):
        entering = [w for g in in_edges[i] for w in edge_wires[g]]
        qubits = entering + fresh_of[i]
        before = len(qc)
        # entangling ladder: couples all entering wires through the whole
        # block, pinning the intended DAG shape; cx is real, so
        # Y-goldenness survives real_blocks
        for a, b in zip(qubits, qubits[1:]):
            qc.cx(a, b)
        qc = qc.compose(block(len(qubits), depth, seed=rng), qubits=qubits)
        # each out-edge takes distinct wires off the end of the fresh set
        pos = len(fresh_of[i])
        for g in reversed(out_edges[i]):
            k = cuts_per_group[g]
            edge_wires[g] = fresh_of[i][pos - k : pos]
            pos -= k
        for g in out_edges[i]:
            for w in edge_wires[g]:  # every cut wire needs an anchor here
                if not any(
                    w in qc[j].qubits for j in range(before, len(qc))
                ):
                    angle = float(rng.uniform(0, 6.28))
                    if real_blocks:
                        qc.ry(angle, w)
                    else:
                        qc.rx(angle, w)
            boundary = {
                w: max(j for j, inst in enumerate(qc) if w in inst.qubits)
                for w in edge_wires[g]
            }
            specs_by_edge[g] = CutSpec(
                tuple(CutPoint(w, boundary[w]) for w in edge_wires[g])
            )
    return qc, [specs_by_edge[g] for g in range(len(edges))]


def ghz_star_circuit(
    children: int = 3,
    fresh_per_child: int = 7,
    angles: "tuple[float, ...] | None" = None,
):
    """A wide GHZ-star with one cut per child — the 20+-qubit workload.

    The root fragment prepares a ``(1 + children)``-qubit GHZ state (one
    anchor, one carrier per child) and every carrier wire is cut right
    after its entangling ``cx``; child fragment ``i`` extends its carrier
    over ``fresh_per_child`` fresh qubits with a ``cx`` ladder, so the
    full circuit is a ``1 + children·(1 + fresh_per_child)``-qubit GHZ
    state — e.g. ``(3, 7)`` is 25 qubits cut into fragments of ≤ 8.
    Fragments stay statevector-simulable while the *dense* reconstruction
    would need a ``2^n`` float vector; the sparse path reconstructs it in
    O(kept outcomes).

    ``angles[i]`` (optional, one per child) appends ``ry(angle)`` to the
    last qubit of child ``i`` **after** its ladder, flipping that qubit
    with probability ``sin²(angle/2)`` independently per child — the
    distribution stays analytically known (:func:`ghz_star_truth`,
    ``2^{children + 1}`` outcomes) but is no longer two spikes, so
    ``threshold`` pruning has genuine small mass to discard.

    Returns ``(circuit, specs)`` ready for
    :func:`~repro.cutting.tree.partition_tree` (a star: ``parents =
    [0] * children``).
    """
    if children < 1 or fresh_per_child < 1:
        raise ValueError("need at least one child and one fresh qubit")
    if angles is not None and len(angles) != children:
        raise ValueError("need one perturbation angle per child")
    n = 1 + children * (1 + fresh_per_child)
    qc = Circuit(n, name=f"ghz_star[{children}x{fresh_per_child}]")
    qc.h(0)
    for i in range(1, children + 1):
        qc.cx(0, i)  # gate index i — the carrier's cut point
    specs = [
        CutSpec((CutPoint(i, i),)) for i in range(1, children + 1)
    ]
    for i in range(1, children + 1):
        block = [i] + [
            children + (i - 1) * fresh_per_child + 1 + j
            for j in range(fresh_per_child)
        ]
        for a, b in zip(block, block[1:]):
            qc.cx(a, b)
        if angles is not None:
            qc.ry(float(angles[i - 1]), block[-1])
    return qc, specs


def ghz_star_truth(
    children: int = 3,
    fresh_per_child: int = 7,
    angles: "tuple[float, ...] | None" = None,
) -> dict[int, float]:
    """Exact output distribution of :func:`ghz_star_circuit`, as a sparse
    ``{little-endian index: probability}`` dict — never a dense vector.

    Each GHZ branch ``b ∈ {0, 1}`` has weight 1/2; within a branch the
    ``ry`` on child ``i``'s last qubit flips it with probability
    ``sin²(angles[i]/2)``, independently across children (the branches are
    orthogonal on the unperturbed qubits, so there is no interference).
    """
    n = 1 + children * (1 + fresh_per_child)
    if angles is None:
        angles = (0.0,) * children
    flip = [float(np.sin(a / 2.0) ** 2) for a in angles]
    last = [children + i * fresh_per_child for i in range(1, children + 1)]
    truth: dict[int, float] = {}
    for b in (0, 1):
        base = (1 << n) - 1 if b else 0
        for subset in range(1 << children):
            p = 0.5
            idx = base
            for i in range(children):
                if (subset >> i) & 1:
                    p *= flip[i]
                    idx ^= 1 << last[i]
                else:
                    p *= 1.0 - flip[i]
            if p > 0.0:
                truth[idx] = truth.get(idx, 0.0) + p
    return truth


def golden_tree_circuit(
    parents: "list[int]",
    planted_groups: "tuple[int, ...] | list[int]" = (),
    fresh_per_fragment: int = 2,
    depth: int = 2,
    seed: "int | None" = None,
):
    """A tree circuit with X/Y-golden cut groups planted where asked.

    The tree analogue of :func:`golden_chain_circuit` — ``parents``
    encodes the topology exactly as in :func:`tree_cut_circuit`, one cut
    per group.  A *planted* group's cut wire is driven only by Z-diagonal
    gates (``rz``/``cz``/``t``) from ``|0⟩``, so the state entering that
    cut carries no X or Y information **for every preparation context**
    the parent group can inject — both bases are golden at that cut
    unconditionally, while Z stays maximally informative.  A *regular*
    group's cut wire is mixed into the block with generic complex
    rotations and an entangling gate, so generically no basis is golden
    there.

    Returns ``(circuit, specs, planted_maps)``: ``planted_maps[g]`` is
    ``{0: ("X", "Y")}`` for planted groups and ``None`` otherwise — ready
    to compare ``golden="detect"`` verdicts (or feed ``golden="known"``)
    in :func:`repro.core.pipeline.cut_and_run_tree`.
    """
    parents = list(parents)
    if not parents:
        raise ValueError("a tree needs at least one cut group")
    N = len(parents) + 1
    children = _tree_children(parents)
    planted = set(planted_groups)
    if planted - set(range(N - 1)):
        raise ValueError(
            f"planted groups {sorted(planted)} out of range "
            f"(tree has {N - 1} groups)"
        )
    for i in range(N):
        if fresh_per_fragment < len(children[i]) + 1:
            raise ValueError(
                f"node {i} has {len(children[i])} children; needs "
                f"fresh_per_fragment >= {len(children[i]) + 1}"
            )
    rng = as_generator(seed)
    n = fresh_per_fragment * N
    qc = Circuit(n, name=f"golden_tree[N={N}]")
    edge_wire: dict[int, int] = {}  # child node -> its entering wire
    specs_by_child: dict[int, CutSpec] = {}
    for i in range(N):
        fresh = list(
            range(i * fresh_per_fragment, (i + 1) * fresh_per_fragment)
        )
        qubits = ([edge_wire[i]] if i > 0 else []) + fresh
        # the *last* fresh qubits carry on, one per child
        outs = fresh[len(fresh) - len(children[i]) :] if children[i] else []
        body = [q for q in qubits if q not in outs]
        before = len(qc)
        qc = qc.compose(
            random_circuit(len(body), depth, seed=rng), qubits=body
        )
        if i > 0 and not any(  # anchor the entering wire in this block
            qubits[0] in qc[j].qubits for j in range(before, len(qc))
        ):
            qc.cx(qubits[0], body[1])
        for w, c in zip(outs, children[i]):
            if c - 1 in planted:
                # Z-diagonal drive only: the cut wire stays |0⟩ exactly, so
                # X and Y are golden for every entering preparation
                qc.rz(float(rng.uniform(0, 6.28)), w)
                qc.cz(w, body[0])
                qc.t(w)
            else:
                qc.ry(float(rng.uniform(0.5, 2.6)), w)
                qc.cx(body[0], w)
                qc.rx(float(rng.uniform(0.5, 2.6)), w)
            boundary = max(
                j for j, inst in enumerate(qc) if w in inst.qubits
            )
            specs_by_child[c] = CutSpec((CutPoint(w, boundary),))
            edge_wire[c] = w
    planted_maps = [
        {0: ("X", "Y")} if g in planted else None for g in range(N - 1)
    ]
    return qc, [specs_by_child[c] for c in range(1, N)], planted_maps


def golden_chain_circuit(
    num_fragments: int,
    planted_groups: "tuple[int, ...] | list[int]" = (),
    fresh_per_fragment: int = 2,
    depth: int = 2,
    seed: "int | None" = None,
):
    """A chain circuit with X/Y-golden cut groups planted where asked.

    One cut per group.  A *planted* group's cut wire is driven only by
    Z-diagonal gates (``rz``/``t``/``cz``) from ``|0⟩``, so the state
    entering that cut carries no X or Y information **for every
    preparation context** the previous group can inject — both bases are
    golden at that cut unconditionally, while Z stays maximally informative
    (the wire sits in a computational eigenstate).  A *regular* group's cut
    wire is mixed into the block with generic complex rotations and an
    entangling gate, so generically no basis is golden there; detection
    tests verify the induced deviations analytically before relying on
    them.

    Returns ``(circuit, specs, planted_maps)``: ``planted_maps[g]`` is
    ``{0: ("X", "Y")}`` for planted groups and ``None`` otherwise — ready
    to compare ``golden="detect"`` verdicts (or feed ``golden="known"``)
    in :func:`repro.core.pipeline.cut_and_run_chain`.
    """
    if num_fragments < 2:
        raise ValueError("a chain needs at least two fragments")
    if fresh_per_fragment < 2:
        raise ValueError("need at least two fresh qubits per fragment")
    planted = set(planted_groups)
    if planted - set(range(num_fragments - 1)):
        raise ValueError(
            f"planted groups {sorted(planted)} out of range "
            f"(chain has {num_fragments - 1} groups)"
        )
    rng = as_generator(seed)
    n = fresh_per_fragment * num_fragments
    qc = Circuit(n, name=f"golden_chain[N={num_fragments}]")
    specs = []
    start = 0
    for i in range(num_fragments):
        carry_in = 1 if i > 0 else 0
        qubits = list(range(start - carry_in, start + fresh_per_fragment))
        start += fresh_per_fragment
        last_group = i == num_fragments - 1
        # the *last* local qubit carries on into block i + 1
        cut_wire = None if last_group else qubits[-1]
        body = [q for q in qubits if q != cut_wire]
        before = len(qc)
        qc = qc.compose(
            random_circuit(len(body), depth, seed=rng), qubits=body
        )
        if i > 0 and not any(  # anchor the entering wire in this block
            qubits[0] in qc[j].qubits for j in range(before, len(qc))
        ):
            qc.cx(qubits[0], body[1])
        if cut_wire is None:
            continue
        if i in planted:
            # Z-diagonal drive only: the cut wire stays |0⟩ exactly, so X
            # and Y are golden for every entering preparation
            qc.rz(float(rng.uniform(0, 6.28)), cut_wire)
            qc.cz(cut_wire, body[0])
            qc.t(cut_wire)
        else:
            qc.ry(float(rng.uniform(0.5, 2.6)), cut_wire)
            qc.cx(body[0], cut_wire)
            qc.rx(float(rng.uniform(0.5, 2.6)), cut_wire)
        boundary = max(j for j, inst in enumerate(qc) if cut_wire in inst.qubits)
        specs.append(CutSpec((CutPoint(cut_wire, boundary),)))
    planted_maps = [
        {0: ("X", "Y")} if g in planted else None
        for g in range(num_fragments - 1)
    ]
    return qc, specs, planted_maps


def run_scaling(max_cuts: int = 3, depth: int = 2, seed: int = 777, repeats: int = 3) -> list[dict]:
    """Measure terms/variants/reconstruction-time across (K, K_g) grid.

    Each ``K``-cut circuit runs as the 2-node fragment tree on exact data.
    ``rows(4^Kr*3^Kg)`` counts the basis rows of the cut group's
    reconstruction pools, ``upstream``/``downstream`` the variants of the
    measuring and the preparing fragment — all read off the variant plan
    the reconstruction actually consumes.
    """
    rows: list[dict] = []
    for K in range(1, max_cuts + 1):
        qc, spec = multi_cut_golden_circuit(K, depth=depth, seed=seed + K)
        tree = partition_tree(qc, [spec])
        for kg in range(K + 1):
            golden = {k: "Y" for k in range(kg)}
            bases, variants = tree_reduced_variants(tree, [golden or None])
            data = exact_tree_data(tree, variants=variants)
            sw = Stopwatch()
            for _ in range(repeats):
                with sw:
                    reconstruct_tree_distribution(
                        data, bases=bases, postprocess="raw"
                    )
            up, down = (len(v) for v in variants)
            rows.append(
                {
                    "K": K,
                    "K_golden": kg,
                    "rows(4^Kr*3^Kg)": int(np.prod([len(p) for p in bases[0]])),
                    "upstream": up,
                    "downstream": down,
                    "variants": up + down,
                    "reconstruct_ms": 1e3 * sw.elapsed / repeats,
                }
            )
    return rows
