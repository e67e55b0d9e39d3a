"""Brute-force oracles (the semantics the fast kernels match).

One Python iteration per basis row and per preparation eigenstate, straight
from the paper's Eq. 13 applied to both sides of a fragment, and one
iteration per element of the *full* basis-row product across all cut
groups for the whole reconstruction — the cost the network contraction
avoids.  The record resolution (``I``-fallback, eigenstate expansion,
signs) is the library's own :func:`~repro.cutting.reconstruction._chain_row_runs`
iterator, which the variance model shares, so oracle, kernel and variance
model agree on which variant serves which row.

:func:`contract_network_reference` and :func:`dense_reconstruction_reference`
are the dense contraction as whole-vector passes — full GEMMs on every
merge, then one permuting copy to qubit order, then the ``2^{-K}`` scale
and :func:`postprocess_reference` — the semantics the closing merge
matches while writing qubit order block by block.

:func:`downstream_closure_reference` is the networkx form of the cutter's
downstream closure, which :class:`~repro.circuits.dag.CircuitDag` computes
on bitmasks.

:func:`prefix_splits_reference` is the greedy cut search's candidate
ranking done eagerly — every distinct prefix scored, then one sort — the
sequence the search's lazily bucketed generator yields.

:func:`evolve_noisy_tensor_full_device` and
:func:`noisy_variant_probs_reference` evolve every wire of the device — the
semantics the fake-hardware backend and the noisy fragment cache match
while evolving only the wires a job touches.

:func:`counts_to_probs_reference` parses a bitstring dictionary key by key
and :func:`split_joint_probs_reference` scatters a flat distribution into
``A[b_out, b_cut]`` index by index — the semantics of the count-vector
divide and the transposing record copy.
"""

from __future__ import annotations

import itertools

import networkx as nx
import numpy as np

from repro.cutting.reconstruction import (
    DEFAULT_DTYPE,
    _chain_row_runs,
    _chain_rows,
    _network_clusters,
    _normalise_chain_bases,
    _resolve_plan,
    _tree_of,
    _walk_plan,
    build_tree_fragment_tensor,
    project_to_simplex,
)
from repro.exceptions import ReconstructionError, SimulationError
from repro.cutting.variance import _tree_row_stats
from repro.linalg.channels import apply_channel
from repro.linalg.tensor import apply_matrix_to_axes
from repro.noise.readout import apply_readout_error
from repro.sim.density import probabilities_from_tensor, zero_density_tensor
from repro.transpile.pipeline import transpile
from repro.utils.bits import (
    bitstring_to_index,
    marginalize_probs,
    permute_probability_axes,
    split_index,
)

__all__ = [
    "build_chain_fragment_tensor_reference",
    "build_tree_fragment_tensor_reference",
    "contract_network_reference",
    "counts_to_probs_reference",
    "dense_reconstruction_reference",
    "downstream_closure_reference",
    "evolve_noisy_tensor_full_device",
    "noisy_variant_probs_reference",
    "postprocess_reference",
    "prefix_splits_reference",
    "reconstruct_chain_distribution_reference",
    "reconstruct_tree_distribution_reference",
    "split_joint_probs_reference",
    "tree_reconstruction_variance_reference",
]


def build_chain_fragment_tensor_reference(data, index: int, bases=None):
    """Row-by-row flat fragment tensor: ``(R_prev, R_next, 2^{n_out})``.

    Reference semantics for
    :func:`repro.cutting.reconstruction.build_chain_fragment_tensor`.
    """
    frag, records, _, _, rows_prev, rows_next, fallback = _chain_rows(
        data, index, bases
    )
    out = np.zeros((len(rows_prev), len(rows_next), 1 << frag.n_out))
    for a, b, sign, signs_n, A in _chain_row_runs(
        index, frag, records, rows_prev, rows_next, fallback
    ):
        out[a, b] += sign * (A @ signs_n)
    return out, rows_prev, rows_next


def build_tree_fragment_tensor_reference(data, index: int, bases=None):
    """Row-by-row tree node tensor with one row axis per child group.

    The flat reference above with its exiting row axis split into
    per-group axes (an exact C-order reshape, no arithmetic).  Reference
    semantics for :func:`repro.cutting.reconstruction.build_tree_fragment_tensor`.
    """
    tree = data.tree
    frag = tree.fragments[index]
    T, rows_prev, _ = build_chain_fragment_tensor_reference(data, index, bases)
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    rows_per_group = [
        list(itertools.product(*group_bases[h])) for h in frag.meas_groups
    ]
    shape = (
        (len(rows_prev),)
        + tuple(len(r) for r in rows_per_group)
        + (1 << frag.n_out,)
    )
    return T.reshape(shape), rows_prev, rows_per_group


def reconstruct_tree_distribution_reference(
    data, bases=None, postprocess: str = "raw"
) -> np.ndarray:
    """Brute-force tree/DAG reconstruction over the full basis-row product.

    Each term is an outer product of per-node reduced-row vectors, every
    node indexed by its entering groups' rows and each child group's row.
    """
    tree = data.tree
    tensors = []
    group_rows: list = [None] * tree.num_groups
    for i in range(tree.num_fragments):
        frag = tree.fragments[i]
        T, _, rows_per_group = build_tree_fragment_tensor_reference(
            data, i, bases
        )
        tensors.append(T)
        for h, rows in zip(frag.meas_groups, rows_per_group):
            group_rows[h] = rows

    n_total = len(tree.output_order())
    joint = np.zeros(1 << n_total)
    for combo in itertools.product(*[range(len(r)) for r in group_rows]):
        vec = None
        for i in range(tree.num_fragments):
            frag = tree.fragments[i]
            # flat entering row: C-order product over the entering groups
            # (later groups fastest), matching the flat pool concatenation
            a = 0
            for h in frag.in_groups:
                a = a * len(group_rows[h]) + combo[h]
            sel = tuple(combo[h] for h in frag.meas_groups)
            term = tensors[i][(a,) + sel]
            # outer product keeps earlier nodes least significant
            vec = term if vec is None else np.multiply.outer(term, vec).ravel()
        joint += vec
    joint /= float(1 << tree.total_cuts)
    full = permute_probability_axes(joint, tree.output_order())
    return postprocess_reference(full, postprocess)


def postprocess_reference(vec, mode: str):
    """Dense ``postprocess=`` as separate passes over a whole vector.

    ``"clip"`` clips, sums and divides inside ``vec``; ``"raw"`` returns
    it as is and ``"simplex"`` a new projected array.  Reference
    semantics for the tail the closing merge runs block by block.
    """
    if mode == "raw":
        return vec
    if mode == "clip":
        out = np.clip(vec, 0.0, None, out=vec)
        s = out.sum()
        if s <= 0:
            raise ReconstructionError("reconstruction clipped to zero mass")
        out /= s
        return out
    if mode == "simplex":
        return project_to_simplex(vec)
    raise ReconstructionError(f"unknown postprocess mode {mode!r}")


def contract_network_unordered(tensors, tree, plan, bases=None):
    """Plain pairwise contraction: ``(vector, label of every bit)``.

    Every merge, the last one included, is one full GEMM
    (``_merge_clusters`` without ``out=``), so the vector is the
    ``(D_b, D_a)`` product of the closing merge, bit ``j`` carrying
    original qubit ``labels[j]``.
    """
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    last = _walk_plan(
        _network_clusters(tensors, tree, group_bases), tree, plan
    )
    return last.t.reshape(-1), last.labels


def contract_network_reference(tensors, tree, plan, bases=None):
    """Contract, then permute to qubit order with one whole-vector copy.

    Reference semantics for
    :func:`repro.cutting.reconstruction._contract_network`, whose last
    merge writes qubit order block by block.
    """
    return permute_probability_axes(
        *contract_network_unordered(tensors, tree, plan, bases)
    )


def dense_reconstruction_reference(
    data, bases=None, postprocess: str = "raw", dtype=DEFAULT_DTYPE, plan=None
):
    """The dense reconstruction as whole-vector passes.

    The same node tensors and plan as
    :func:`repro.cutting.reconstruction.reconstruct_tree_distribution`,
    contracted by :func:`contract_network_reference`, then divided by
    ``2^K`` and postprocessed by :func:`postprocess_reference`.  ``"raw"``
    must match the library bit for bit.
    """
    tree = _tree_of(data)
    plan = _resolve_plan(tree, bases, plan)
    tensors = [
        build_tree_fragment_tensor(data, i, bases, dtype)[0]
        for i in range(tree.num_fragments)
    ]
    full = contract_network_reference(tensors, tree, plan, bases)
    full /= float(1 << tree.total_cuts)
    return postprocess_reference(full, postprocess)


def reconstruct_chain_distribution_reference(
    data, bases=None, postprocess: str = "raw"
) -> np.ndarray:
    """Chain alias of :func:`reconstruct_tree_distribution_reference`."""
    return reconstruct_tree_distribution_reference(
        data, bases=bases, postprocess=postprocess
    )


def tree_reconstruction_variance_reference(data, bases=None) -> np.ndarray:
    """Delta-method variance as the per-term formula.

    ``Var ≈ 4^{-K} Σ_i perm(C_i)`` with ``C_i`` the network contracted with
    node ``i``'s row variances substituted and every other node's means
    squared, each term contracted by :func:`contract_network_reference`
    (permuted to qubit order on its own) before it is added.  Reference
    semantics for :func:`repro.cutting.variance.tree_reconstruction_variance`,
    whose contraction delivers each term in qubit order.
    """
    tree = data.tree
    n_total = len(tree.output_order())
    if data.shots_per_variant <= 0:
        return np.zeros(1 << n_total)
    stats = [
        _tree_row_stats(data, i, bases) for i in range(tree.num_fragments)
    ]
    plan = _resolve_plan(tree, bases, None)
    total = np.zeros(1 << n_total)
    for v in range(tree.num_fragments):
        tensors = [
            stats[i][1] if i == v else np.square(stats[i][0])
            for i in range(tree.num_fragments)
        ]
        total += contract_network_reference(tensors, tree, plan, bases)
    return (1.0 / float(4**tree.total_cuts)) * total


def downstream_closure_reference(circuit, points) -> set[int]:
    """Downstream instruction set of ``(wire, gate_index)`` cut points.

    Reference semantics for
    :meth:`repro.circuits.dag.CircuitDag.downstream_closure`: on a
    networkx wire-dependency graph built here, the seeds are
    ``nx.descendants`` of the first gate after each cut; reachability and
    whole-wire absorption of uncut wires then repeat until nothing changes.
    """
    wires = [
        [i for i, inst in enumerate(circuit) if q in inst.qubits]
        for q in range(circuit.num_qubits)
    ]
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(circuit)))
    for seq in wires:
        graph.add_edges_from(zip(seq, seq[1:]))
    cut_wires = {w for w, _ in points}
    down: set[int] = set()
    for w, g in points:
        first = wires[w][wires[w].index(g) + 1]
        down |= nx.descendants(graph, first) | {first}
    while True:
        grown = set(down)
        for node in down:
            grown |= nx.descendants(graph, node)
        for w, seq in enumerate(wires):
            if w not in cut_wires and grown & set(seq):
                grown |= set(seq)
        if grown == down:
            return down
        down = grown


def evolve_noisy_tensor_full_device(tensor, circuit, noise_model, num_qubits: int):
    """Noisy evolution of a rank-2n density tensor on every device wire.

    Ket axis ``q`` / bra axis ``n + q`` is physical wire ``q``; trailing
    axes are batch dimensions.  Reference semantics for
    :func:`repro.sim.density.evolve_noisy_tensor` on a touched-wire register.
    """
    n = num_qubits
    for inst in circuit:
        if inst.name == "barrier":
            continue
        m = inst.gate.matrix()
        tensor = apply_matrix_to_axes(tensor, m, list(inst.qubits))
        tensor = apply_matrix_to_axes(tensor, m.conj(), [q + n for q in inst.qubits])
        for channel, qubits in noise_model.channels_for(inst.name, inst.qubits):
            tensor = apply_channel(tensor, channel, qubits, n)
    return tensor


def noisy_variant_probs_reference(dev, circuit) -> np.ndarray:
    """The exact distribution fake hardware samples for ``circuit``.

    Transpile, evolve the whole device's density matrix, apply readout
    error on every wire, un-permute the layout and marginalise the unused
    wires — per-variant execution before any fragment cache or register
    restriction.
    """
    physical, layout = transpile(circuit, dev.coupling)
    n = physical.num_qubits
    t = evolve_noisy_tensor_full_device(
        zero_density_tensor(n), physical, dev.noise_model, n
    )
    probs = probabilities_from_tensor(t, n)
    probs = apply_readout_error(probs / probs.sum(), dev.noise_model.readout, n)
    perm = [0] * n
    for logical, phys in enumerate(layout):
        perm[phys] = logical
    probs = permute_probability_axes(probs, perm)
    if circuit.num_qubits < n:
        probs = marginalize_probs(probs, range(circuit.num_qubits), n)
    return probs


def counts_to_probs_reference(counts: dict, num_qubits: int) -> np.ndarray:
    """Empirical distribution of a ``{bitstring: count}`` dict, key by key."""
    probs = np.zeros(1 << num_qubits, dtype=np.float64)
    total = 0
    for bitstring, c in counts.items():
        if len(bitstring) != num_qubits:
            raise SimulationError(
                f"bitstring {bitstring!r} length != {num_qubits} qubits"
            )
        if c < 0:
            raise SimulationError(f"negative count for {bitstring!r}")
        probs[bitstring_to_index(bitstring)] += c
        total += c
    if total == 0:
        raise SimulationError("counts dictionary is empty")
    return probs / total


def split_joint_probs_reference(probs, out_local, cut_local, dtype=np.float64):
    """``A[b_out, b_cut]`` by scattering every basis index of ``probs``."""
    n = len(out_local) + len(cut_local)
    idx = np.arange(1 << n)
    sub_out, sub_cut = split_index(idx, [out_local, cut_local])
    out = np.zeros((1 << len(out_local), 1 << len(cut_local)), dtype=dtype)
    np.add.at(out, (sub_out, sub_cut), probs)
    return out


def prefix_splits_reference(ctx, piece, group: int) -> list:
    """Every ranked ``(spec, halves)`` candidate split of one piece.

    Reference semantics for :func:`repro.cutting.search._prefix_splits`:
    each distinct prefix point list of every candidate order is scored up
    front, splits whose upstream half was already seen are dropped, and
    the whole list is sorted once by ``(cuts, max width, width imbalance,
    discovery order)`` before any split is built.
    """
    from repro.circuits.dag import CircuitDag
    from repro.cutting.search import (
        _biased_topological_order,
        _score_split,
        _split_piece,
    )

    circuit = piece.circuit
    num_qubits = circuit.num_qubits
    dag = CircuitDag(circuit)
    segments = [dag.wire_segments(w) for w in range(num_qubits)]
    orders = [list(range(len(circuit)))]
    if num_qubits >= 4:
        half_a, half_b = dag.balanced_qubit_bisection(seed=ctx.seed or 0)
        orders.append(_biased_topological_order(circuit, dag, half_a))
        orders.append(_biased_topological_order(circuit, dag, half_b))
    tried: set = set()
    seen: set = set()
    ranked = []
    for order in orders:
        counts = [0] * num_qubits
        for node in order[:-1]:
            for wire in circuit[node].qubits:
                counts[wire] += 1
            points = [
                (wire, seg[c - 1])
                for wire, (seg, c) in enumerate(zip(segments, counts))
                if 0 < c < len(seg)
            ]
            if not points or len(points) > ctx.max_cuts:
                continue
            if tuple(points) in tried:
                continue
            tried.add(tuple(points))
            scored = _score_split(piece, dag, points, group)
            if scored is None or scored[0] in seen:
                continue
            seen.add(scored[0])
            widths = scored[1]
            key = (
                len(points),
                max(widths),
                abs(widths[0] - widths[1]),
                len(ranked),
            )
            ranked.append((key, points))
    ranked.sort()
    return [_split_piece(piece, points, group) for _, points in ranked]
