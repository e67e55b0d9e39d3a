"""Classical reconstruction of the uncut circuit from fragment data.

Implements paper Eq. 13/14 on a fragment network.  Every fragment of a
tree or DAG (the paper's single cut is the 2-node tree, a chain the
one-child tree) becomes a *reduced tensor* with one basis-row axis per
incident cut group plus its output axis.  The preparation side is
contracted like

.. math::

    \\hat B[M, b] = \\sum_s \\Big(\\prod_k w_k(s_k)\\Big)\\,
        \\hat p_{\\mathrm{init}(M,s)}(b),

a signed sum over the eigenstates of the entering row's bases, and the
measurement side like

.. math::

    \\hat A[M, b] = \\sum_r \\Big(\\prod_k w_k(r_k)\\Big)\\,
        \\hat p_{S(M)}(b, r),

with weights ``w_k = +1`` for ``M_k = I`` and the outcome eigenvalue
``(1 - 2 bit)`` otherwise.  The joint output distribution is the
contraction of the network over every cut group's row axis, scaled by
``Π_g 2^{-K_g}``; for a single cut group this is the paper's

.. math::

    p[b_1, b_2] = \\frac{1}{2^K} \\sum_M \\hat A[M, b_1]\\, \\hat B[M, b_2].

Both sides of a fragment tensor are *fully factorised over the cuts*: the
measured records are stacked into a tensor with one axis per cut, and each
cut contributes a small per-cut transfer matrix (basis → setting/eigenvalue
weights on the measuring side, basis → preparation weights on the
preparing side) that is contracted in with a single ``tensordot`` — no
Python loop over basis rows or preparation indices.  Golden cutting points
drop basis elements from individual cuts' pools, which simply *slices rows
off the per-cut transfer matrices*: the paper's ``O(4^{K_r} 3^{K_g})`` term
count falls out of the factorisation for free, group by group (see
:mod:`repro.core`).  The brute-force row loops the kernels are validated
against live with the tests (``tests/oracles.py``).

There is one contraction path: the network is merged pairwise in the order
of a :class:`~repro.cutting.contraction.ContractionPlan` — the fixed
leaves-to-root order on trees, a searched one on DAGs — optionally pruning
outcome columns after every merge (``prune=``, see
:mod:`repro.cutting.sparse`).  On the dense path the last merge writes the
``2^n`` result straight into qubit order, one cache-sized block of top
output qubits at a time, and applies the ``2^{-K}`` scale or the clip on
each block as it goes: the result is the only ``2^n`` array a dense
reconstruction allocates.

Finite shots can leave small negative quasi-probabilities; ``postprocess``
chooses between returning them (``"raw"``), clipping + renormalising
(``"clip"``, the default) or the Euclidean projection onto the probability
simplex (``"simplex"``, the maximum-likelihood-flavoured choice of the
paper's ref [19]).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from repro.cutting.sparse import (
    PrunePolicy,
    SparseDistribution,
    postprocess_sparse,
)
from repro.exceptions import ReconstructionError

__all__ = [
    "build_chain_fragment_tensor",
    "build_tree_fragment_tensor",
    "reconstruct_chain_distribution",
    "reconstruct_tree_distribution",
    "reconstruct_counts",
    "project_to_simplex",
    "DEFAULT_DTYPE",
    "FULL_BASES",
]

#: dense reconstructions accumulate in this dtype unless told otherwise
DEFAULT_DTYPE = np.float64

#: accepted ``postprocess=`` modes of the reconstruction entry points
_POSTPROCESS_MODES: tuple[str, ...] = ("raw", "clip", "simplex")

#: Default basis pool per cut (paper Eq. 1).
FULL_BASES: tuple[str, ...] = ("I", "X", "Y", "Z")

_PREP_OF = {
    "I": ("Z+", "Z-"),
    "Z": ("Z+", "Z-"),
    "X": ("X+", "X-"),
    "Y": ("Y+", "Y-"),
}


def _signs_for(mask: int, num_cuts: int) -> np.ndarray:
    """Vector over outcomes r∈{0,1}^K of ``Π_{k in mask} (1-2 r_k)``.

    Branch-free: the sign is the parity (popcount mod 2) of ``r & mask``,
    computed by xor-folding the masked bits — no Python loop over ``K``.
    """
    m = np.arange(1 << num_cuts) & mask
    m ^= m >> 16
    m ^= m >> 8
    m ^= m >> 4
    m ^= m >> 2
    m ^= m >> 1
    return 1.0 - 2.0 * (m & 1)


def _normalise_bases(
    bases: Sequence[Sequence[str]] | None, num_cuts: int
) -> list[tuple[str, ...]]:
    """Per-cut basis pools of one group, validated against ``{I,X,Y,Z}``."""
    if bases is None:
        return [FULL_BASES] * num_cuts
    if len(bases) != num_cuts:
        raise ReconstructionError("bases list length != number of cuts")
    pools = [tuple(b) for b in bases]
    for k, pool in enumerate(pools):
        bad = set(pool) - set(FULL_BASES)
        if bad:
            raise ReconstructionError(f"invalid bases {bad} for cut {k}")
        if not pool:
            raise ReconstructionError(f"cut {k} has an empty basis pool")
    return pools


# ---------------------------------------------------------------------------
# Fragment-network reconstruction.  With nodes F_0 .. F_{N-1} and cut groups
# g (group g linking its source node to its destination node), the joint
# output distribution is the contraction
#
#     p[b_0..b_{N-1}] = (Π_g 2^{-K_g}) Σ_{M_0..M_{G-1}}
#         Π_i T_i[M_{in(i)}, M_{out_1(i)}, .., M_{out_C(i)}, b_i]
#
# where T_i is node i's *reduced tensor*: its prep side is contracted like
# B̂ (signed sum over preparation eigenstates of the entering groups' basis
# rows) and its measure side like Â (eigenvalue-weighted outcome sum), with
# **one row axis per exiting child group**.  Each side factorises over its
# cuts into per-cut transfer matrices, so neglected pools just slice rows
# off individual cuts' factors — the paper's O(4^{K_r} 3^{K_g}) reduction
# applies per cut group.  The contraction merges clusters of fragments
# pairwise along a plan, one GEMM per merge written straight into the
# merged cluster's layout, so per-group row counts only ever meet their
# neighbours and never multiply globally.


def _tree_of(data):
    """The :class:`~repro.cutting.tree.FragmentTree` behind a data record."""
    return data.tree


def _normalise_chain_bases(bases, group_sizes: Sequence[int]):
    """Per-group basis pools: ``bases[g][k]`` is cut k of group g's pool."""
    if bases is None:
        return [[FULL_BASES] * k for k in group_sizes]
    if len(bases) != len(group_sizes):
        raise ReconstructionError("bases list length != number of cut groups")
    return [
        _normalise_bases(pools, k) for pools, k in zip(bases, group_sizes)
    ]


def _chain_fallback(
    records: dict, num_meas: int
) -> list[str]:
    """Per-cut ``I``-row fallback letters from the settings actually run."""
    settings = {s for _, s in records}
    if not settings:
        raise ReconstructionError("no fragment data")
    pools = [sorted({s[k] for s in settings}) for k in range(num_meas)]
    return ["Z" if "Z" in p else p[0] for p in pools]


def _chain_rows(data, index: int, bases):
    """Shared per-fragment row bookkeeping of the tensor builders.

    Returns ``(frag, records, prev_bases, next_bases, rows_prev, rows_next,
    fallback)`` — the **flat** entering pools (every entering group's
    per-cut pools concatenated in the node's group order; one group on a
    tree node, several at a joint-prep DAG node) and the **flat** exiting
    pools (every child group's per-cut pools concatenated the same way)
    resolved from ``bases``, their basis-row products (``[()]`` at the root
    / leaves) and the per-cut ``I``-row fallback letters.  At a branching
    node ``rows_next`` runs over the product of the child groups' rows, and
    at a joint-prep node ``rows_prev`` over the product of the entering
    groups' rows.
    """
    tree = _tree_of(data)
    frag = tree.fragments[index]
    records = data.records[index]
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    prev_bases = [
        pool for h in frag.in_groups for pool in group_bases[h]
    ]
    next_bases = [
        pool for h in frag.meas_groups for pool in group_bases[h]
    ]
    rows_prev = list(itertools.product(*prev_bases)) if prev_bases else [()]
    rows_next = list(itertools.product(*next_bases)) if next_bases else [()]
    fallback = _chain_fallback(records, frag.num_meas)
    return frag, records, prev_bases, next_bases, rows_prev, rows_next, fallback


def _chain_row_runs(index, frag, records, rows_prev, rows_next, fallback):
    """Iterate every record one fragment's reduced rows consume.

    Yields ``(a, b, sign, signs_n, A)``: for entering row ``rows_prev[a]``
    and exiting row ``rows_next[b]``, each preparation-eigenstate run with
    its entering-side sign, the exiting-side eigenvalue weight vector and
    the measured record ``A[b_out, b_cut]``.  This is the *single*
    definition of which variant serves which row (``I``-fallback
    substitution included) — shared by the variance model and the test
    oracles so the two cannot drift.
    """
    Kp, Kn = frag.num_prep, frag.num_meas
    for a, row_p in enumerate(rows_prev):
        mask_p = sum(1 << k for k, m in enumerate(row_p) if m != "I")
        for b, row_n in enumerate(rows_next):
            setting = tuple(
                m if m != "I" else fallback[k] for k, m in enumerate(row_n)
            )
            mask_n = sum(1 << k for k, m in enumerate(row_n) if m != "I")
            signs_n = _signs_for(mask_n, Kn)
            for s in range(1 << Kp):
                init = tuple(
                    _PREP_OF[m][(s >> k) & 1] for k, m in enumerate(row_p)
                )
                A = records.get((init, setting))
                if A is None:
                    raise ReconstructionError(
                        f"fragment {index} is missing variant "
                        f"{(init, setting)}"
                    )
                sign = 1.0 - 2.0 * (bin(s & mask_p).count("1") & 1)
                yield a, b, sign, signs_n, A


def _resolve_plan(tree, bases, plan):
    """Normalise the ``plan=`` knob of the tree/DAG reconstruction.

    ``None`` picks the fixed leaves-to-root plan on a pure tree (no search
    cost; every tree edge is contracted exactly once) and searches a plan
    automatically on a DAG (``"auto"``).  A method string
    (``"auto"``/``"fixed"``/``"greedy"``/``"dp"``) searches with that
    planner; an explicit :class:`~repro.cutting.contraction.ContractionPlan`
    is validated and used as given.
    """
    from repro.cutting.contraction import (
        ContractionPlan,
        network_spec_for_tree,
        search_plan,
    )

    if plan is None:
        plan = "fixed" if tree.is_tree else "auto"
    if isinstance(plan, ContractionPlan):
        plan.validate(tree.num_fragments)
        return plan
    return search_plan(network_spec_for_tree(tree, bases), plan)


class _NetCluster:
    """One cluster of the network contraction.

    ``groups`` lists the open cut groups, one leading tensor axis each
    (same order); the trailing axis is the flat joint output, bit ``j``
    carrying original qubit ``labels[j]``.  ``k_closed`` counts the cuts
    of groups contracted *inside* the cluster (normalisation bookkeeping
    of the pruning bound), ``members`` the fragment indices absorbed.
    On the pruned path ``v`` holds each kept column's outcome value (the
    column index on the dense path, where ``v`` is ``None``).
    """

    __slots__ = ("groups", "t", "labels", "members", "k_closed", "v")

    def __init__(self, groups, t, labels, members, k_closed=0, v=None):
        self.groups = groups
        self.t = t
        self.labels = labels
        self.members = members
        self.k_closed = k_closed
        self.v = v


def _network_clusters(tensors, tree, group_bases, vals=None):
    """Initial one-fragment clusters with per-group row axes.

    ``tensors[i]`` comes from :func:`build_tree_fragment_tensor` —
    ``(R_in_flat, R_out_1, .., R_out_C, D_i)`` — and the flat entering
    axis is split into one axis per entering group (C-order, so the
    first entering group is slowest, matching the flat row product).
    ``vals`` (pruned path) carries each node's kept output indices.
    """
    rows = [math.prod(len(p) for p in pools) for pools in group_bases]
    clusters = {}
    for i in range(tree.num_fragments):
        frag = tree.fragments[i]
        t = tensors[i]
        shape = (
            tuple(rows[h] for h in frag.in_groups)
            + t.shape[1:]
        )
        clusters[i] = _NetCluster(
            groups=list(frag.in_groups) + list(frag.meas_groups),
            t=t.reshape(shape),
            labels=list(frag.out_original),
            members={i},
            v=None if vals is None else vals[i],
        )
    return clusters


def _move_bits(x: np.ndarray, src, dst) -> np.ndarray:
    """``x`` with bit ``src[j]`` moved to bit ``dst[j]``; other bits drop.

    The one bit-placement primitive of the contraction: sorting a side's
    columns by qubit, placing a pruned result's value bits at their
    qubits, and the closing merge's block indices all go through it.  A
    run where both ``src`` and ``dst`` step by one moves in a single
    shift-and-mask, so label lists made of a few ascending runs cost a
    few passes, not one per bit.
    """
    out = np.zeros_like(x)
    j = 0
    while j < len(src):
        end = j + 1
        while (
            end < len(src)
            and src[end] == src[end - 1] + 1
            and dst[end] == dst[end - 1] + 1
        ):
            end += 1
        mask = (1 << (end - j)) - 1
        out |= ((x >> src[j]) & mask) << dst[j]
        j = end
    return out


def _sorted_columns(c: "_NetCluster") -> "_NetCluster":
    """``c`` with its output columns reordered so its labels ascend.

    Pure data movement: output bit ``j`` of the result carries the
    ``j``-th smallest original qubit of ``c.labels``.  Column values
    (``c.v`` on the pruned path, the column index on the dense path) get
    their bits permuted and the columns are gathered in ascending value
    order, so a pruned cluster that kept every column moves exactly like
    the dense one.
    """
    perm = sorted(range(len(c.labels)), key=c.labels.__getitem__)
    labels = [c.labels[p] for p in perm]
    if labels == c.labels:
        return c
    cols = np.arange(c.t.shape[-1]) if c.v is None else c.v
    vals = _move_bits(cols, perm, range(len(perm)))
    order = np.argsort(vals)
    return _NetCluster(
        groups=c.groups,
        t=c.t[..., order],
        labels=labels,
        members=c.members,
        k_closed=c.k_closed,
        v=None if c.v is None else vals[order],
    )


class _DenseTail:
    """What the dense path's closing merge does to each output block.

    ``scale`` multiplies every entry (skipped at ``1``).  With ``clip``
    negatives are clipped to zero instead and the scale is skipped —
    normalising cancels a power-of-two scale exactly — and ``mass``
    receives the clipped total: per-block sums added pairwise, the same
    tree numpy's pairwise ``sum`` of the whole vector uses.
    """

    __slots__ = ("scale", "clip", "mass")

    def __init__(self, scale: float = 1.0, clip: bool = False):
        self.scale = scale
        self.clip = clip
        self.mass = None


#: the closing merge writes blocks of at most ``2^_BLOCK_BITS`` outputs
#: (128 KiB of float64): each block's GEMM, tail and gather stay in cache
_BLOCK_BITS = 14


@functools.lru_cache(maxsize=16)
def _gather_index(free: tuple) -> np.ndarray:
    """Block gather index: output ``o`` reads product position ``g[o]``.

    Product bit ``j`` carries qubit ``free[j]``, so ``g[o]`` collects bit
    ``free[j]`` of ``o`` into bit ``j``.  The low and high halves of
    ``o`` place their bits independently, so ``g`` is the outer sum of
    two ``√(2^m)``-long placements written straight into the index.
    Memoised per label layout — a workload reconstructs the same tree
    over and over — and left writeable: ``np.take`` copies a read-only
    index on every call.
    """
    m = len(free)
    low = m // 2
    place = functools.partial(_move_bits, src=free, dst=range(m))
    lo = place(np.arange(1 << low, dtype=np.intp))
    hi = place(np.arange(1 << (m - low), dtype=np.intp) << low)
    g = np.empty(1 << m, np.intp)
    np.add(hi[:, None], lo, out=g.reshape(hi.size, lo.size))
    return g


def _write_qubit_order(B, A, labels_a, labels_b, tail: _DenseTail):
    """``B @ A`` written straight into qubit order, block by block.

    ``A`` is ``(S, D_a)`` and ``B`` ``(D_b, S)``, each side's columns in
    ascending qubit order (``labels_a``/``labels_b``), together covering
    qubits ``0..n-1``.  Output block ``k`` — the slice ``out[k·2^m :
    (k+1)·2^m]`` — fixes the top ``n - m`` qubits; those of ``a`` are the
    top bits of ``A``'s column index and those of ``b`` the top bits of
    ``B``'s row index, so the block is one small GEMM of a contiguous row
    block of ``B`` and a strided column block of ``A``.  ``tail`` runs on
    the block while it is in cache, and one memoised index gathers it
    into its slice; when the block's own layout is already qubit order
    the GEMM writes into the slice directly.  The ``(D_b, D_a)`` product
    is never formed: the result is the only ``2^n`` array.

    Outputs of up to ``2^_BLOCK_BITS`` entries are one block, whose GEMM
    is the full product's, bit for bit.  Larger ones take blocks of
    ``2^m`` with ``m = min(_BLOCK_BITS, n - 2)``, raised where needed so
    each side keeps its lowest qubit free in every block: a block GEMM
    never degenerates into a matrix-vector product.
    """
    n = len(labels_a) + len(labels_b)
    m = n
    if n > _BLOCK_BITS:
        # at least four blocks, so the block buffer and its index add at
        # most half an output; each side keeps its lowest qubit free
        lowest = [ls[0] + 1 for ls in (labels_a, labels_b) if ls]
        m = min(n, max([min(_BLOCK_BITS, n - 2)] + lowest))
    fa = sum(q < m for q in labels_a)
    fb = sum(q < m for q in labels_b)
    ha, hb = len(labels_a) - fa, len(labels_b) - fb
    s = A.shape[0]
    A_blocks = A.reshape(s, 1 << ha, -1)
    B_blocks = B.reshape(1 << hb, -1, s)
    shape = (B_blocks.shape[1], A_blocks.shape[2])
    if m == n:
        pairs = [(0, 0)]
    else:
        # block k's row block of B and column block of A
        blocks = np.arange(1 << (n - m))
        ia = _move_bits(blocks, [q - m for q in labels_a[fa:]], range(ha))
        ib = _move_bits(blocks, [q - m for q in labels_b[fb:]], range(hb))
        pairs = list(zip(ia.tolist(), ib.tolist()))
    free = tuple(labels_a[:fa] + labels_b[:fb])
    g = None
    if free != tuple(range(m)):
        # only the common ≤ 2^_BLOCK_BITS index is memoised
        gather = (
            _gather_index if m <= _BLOCK_BITS else _gather_index.__wrapped__
        )
        g = gather(free)
    out = np.empty(1 << n, np.result_type(A, B))
    prod = None if g is None else np.empty(shape, out.dtype)
    sums = np.empty(len(pairs), out.dtype) if tail.clip else None
    for k, (i, j) in enumerate(pairs):
        dst = out[k << m : (k + 1) << m]
        if g is None:
            prod = dst.reshape(shape)
        np.matmul(B_blocks[j], A_blocks[:, i], out=prod)
        if tail.clip:
            np.maximum(prod, 0.0, out=prod)
        elif tail.scale != 1.0:
            prod *= tail.scale
        if g is not None:
            # indices are in range; "raise" would buffer a copy of dst
            np.take(prod.reshape(-1), g, out=dst, mode="clip")
        if tail.clip:
            sums[k] = dst.sum()
    if tail.clip:
        while sums.size > 1:
            sums = sums[0::2] + sums[1::2]
        tail.mass = sums[0]
    return out


def _merge_clusters(
    a: "_NetCluster", b: "_NetCluster", group_sizes, out=None
) -> "_NetCluster":
    """Contract two clusters over their shared open group axes.

    One (batched) GEMM whose result is already in the merged cluster's
    layout ``(open groups of a.., open groups of b.., D_b, D_a)``:

    .. code-block:: text

        B(GB·D_b, S) @ A(GA, S, D_a)  ->  (GA, GB·D_b, D_a)

    with ``S`` the joint row count of the shared groups.  Only the two
    operands are copied into those shapes; the merged tensor is a free
    reshape of the product, never a transposing copy.  The flat output
    column keeps ``a``'s columns fastest (``labels = a.labels +
    b.labels``): on the dense path the column index *is* the outcome
    value, on the pruned path the kept columns' values ``v`` merge in the
    same order (``v_b`` shifted past ``a``'s bits), so both paths share
    this arithmetic and ``top_k(2^n)`` stays bit-identical to dense.

    The merge that closes the last open groups first sorts each side's
    columns by original qubit (:func:`_sorted_columns`, a copy of the
    small operands).  Given ``out`` (a :class:`_DenseTail`; the dense
    path's last merge) it then writes the ``2^n`` result straight into
    qubit order, one cache-sized block at a time with the tail applied
    (:func:`_write_qubit_order`), and the merged cluster's labels are
    ``0..n-1``.  With no shared group (disconnected halves of a
    multi-source DAG) ``S = 1`` and the merge is an outer product.
    """
    shared = [g for g in a.groups if g in b.groups]
    open_a = [i for i, g in enumerate(a.groups) if g not in shared]
    open_b = [i for i, g in enumerate(b.groups) if g not in shared]
    closing = not open_a and not open_b
    if closing:
        a, b = _sorted_columns(a), _sorted_columns(b)
    sa = [a.groups.index(g) for g in shared]
    sb = [b.groups.index(g) for g in shared]
    ga = tuple(a.t.shape[i] for i in open_a)
    gb = tuple(b.t.shape[i] for i in open_b)
    s = math.prod(a.t.shape[i] for i in sa)
    d_a, d_b = a.t.shape[-1], b.t.shape[-1]
    A = a.t.transpose(open_a + sa + [len(a.groups)]).reshape(
        math.prod(ga), s, d_a
    )
    B = b.t.transpose(open_b + [len(b.groups)] + sb).reshape(
        math.prod(gb) * d_b, s
    )
    if out is not None and closing:
        t = _write_qubit_order(B, A[0], a.labels, b.labels, out)
        labels = list(range(len(a.labels) + len(b.labels)))
    else:
        t = np.matmul(B, A).reshape(ga + gb + (d_b * d_a,))
        labels = a.labels + b.labels
    v = None
    if a.v is not None:
        v = (a.v[None, :] | (b.v << len(a.labels))[:, None]).ravel()
    return _NetCluster(
        groups=[a.groups[i] for i in open_a] + [b.groups[i] for i in open_b],
        t=t,
        labels=labels,
        members=a.members | b.members,
        k_closed=a.k_closed
        + b.k_closed
        + sum(group_sizes[g] for g in shared),
        v=v,
    )


def _walk_plan(clusters, tree, plan, after_merge=None, out=None):
    """Merge ``clusters`` pairwise in ``plan`` order; return the last one.

    The single plan walk of the dense and pruned contractions: clusters
    are tracked by union-find over fragment indices, each step merges the
    clusters holding its two fragments (:func:`_merge_clusters`), and
    ``after_merge`` (the pruned path's re-selection) may shrink the merged
    cluster in place before it is stored.  ``out`` goes to the last merge
    only (the dense path's qubit-order tail).  A plan that merges a
    cluster with itself, or leaves a group uncontracted, is rejected.
    """
    rep = list(range(tree.num_fragments))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    for a, b in plan.steps:
        ra, rb = find(a), find(b)
        if ra == rb:
            raise ReconstructionError(
                f"contraction plan merges cluster of fragment {a} with "
                "itself"
            )
        last_step = len(clusters) == 2
        merged = _merge_clusters(
            clusters[ra],
            clusters.pop(rb),
            tree.group_sizes,
            out=out if last_step else None,
        )
        rep[rb] = ra
        if after_merge is not None:
            after_merge(merged)
        clusters[ra] = merged
    (last,) = clusters.values()
    if last.groups:
        raise ReconstructionError(
            f"contraction plan leaves groups {last.groups} open"
        )
    return last


def _contract_network(
    tensors, tree, plan, bases, postprocess: str = "raw", scale: float = 1.0
) -> np.ndarray:
    """Planned pairwise contraction of a fragment network (dense).

    Node tensors (from :func:`build_tree_fragment_tensor`, or the variance
    model's substituted moments) are split into one row axis per incident
    group and merged pairwise in ``plan`` order; each merge is one GEMM
    over the groups the two clusters share (:func:`_merge_clusters`).
    The last merge writes the joint output vector straight into qubit
    order, multiplied by ``scale``, and finishes ``postprocess``:
    ``"clip"`` clips block by block and divides by the clipped mass (the
    scale cancels and is skipped), ``"simplex"`` projects the scaled
    vector.  Returns that vector — a fresh array, never a view of an
    input tensor, and the only ``2^n`` array the contraction allocates
    (``"simplex"`` returns a second one).
    """
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    tail = _DenseTail(scale, clip=postprocess == "clip")
    v = _walk_plan(
        _network_clusters(tensors, tree, group_bases), tree, plan, out=tail
    ).t
    if tail.clip:
        if tail.mass <= 0:
            raise ReconstructionError("reconstruction clipped to zero mass")
        v /= tail.mass
    elif postprocess == "simplex":
        v = project_to_simplex(v)
    return v


def _contract_network_pruned(
    data, tree, bases, prune: PrunePolicy, dtype, plan
) -> tuple[np.ndarray, np.ndarray, list[int], float]:
    """Planned pairwise network contraction with outcome pruning.

    Each node's own output axis is pruned at build time
    (:func:`build_tree_fragment_tensor`); after **every** merge — the
    final one included — the combined outcome axis is re-pruned by its
    mixed-input marginal: the all-``I`` row over every *open* group axis,
    normalised by the ``2^{k_closed}`` of the cuts contracted inside the
    cluster and scored against ``2^{Σ K_g}`` over the open groups
    *entering* the cluster (their joint state obeys
    ``ρ ≤ 2^{K}·I/2^{K}``; open exiting groups' ``I`` rows are plain
    outcome marginals and carry no scale).  Intermediate widths therefore
    stay ~``k × 2^{n_out}`` instead of multiplying across merges, and a
    ``top_k(k)`` result never holds more than ``k`` outcomes.  Each
    step's discarded bound mass (see :mod:`repro.cutting.sparse`)
    accumulates into the returned rigorous ``prune_bound``.  When nothing
    is pruned the arithmetic is the dense contraction's, so
    ``top_k(2^n)`` is bit-identical to the dense reconstruction.

    Returns ``(indices, values, order, prune_bound)`` with ``order`` the
    original-qubit label of each value-index bit.
    """
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    irow = [_identity_row_index(pools) for pools in group_bases]
    tensors = []
    vals = []
    bound = 0.0
    for i in range(tree.num_fragments):
        t, _, _, keep, eps = build_tree_fragment_tensor(
            data, i, bases, dtype, prune
        )
        bound += max(eps, 0.0)
        tensors.append(t)
        vals.append(keep.astype(np.int64))

    def reprune(merged: "_NetCluster") -> None:
        nonlocal bound
        sel = tuple(irow[g] for g in merged.groups)
        mass = np.maximum(merged.t[sel] / float(1 << merged.k_closed), 0.0)
        k_open_prep = sum(
            tree.group_sizes[g]
            for g in merged.groups
            if tree.group_dst[g] in merged.members
        )
        keep = prune.select(mass / float(1 << k_open_prep))
        if keep.size < mass.size:
            bound += max(float(mass.sum() - mass[keep].sum()), 0.0)
            merged.t = np.ascontiguousarray(merged.t[..., keep])
            merged.v = merged.v[keep]

    clusters = _network_clusters(tensors, tree, group_bases, vals=vals)
    last = _walk_plan(clusters, tree, plan, reprune)
    values = last.t / float(1 << tree.total_cuts)
    return last.v, values, last.labels, bound


def build_chain_fragment_tensor(
    data, index: int, bases=None, dtype=DEFAULT_DTYPE
) -> tuple[np.ndarray, list, list]:
    """Reduced tensor of one fragment over flat rows: ``(R_prev, R_next, 2^{n_out})``.

    ``bases`` lists the per-group basis pools (see
    :func:`reconstruct_tree_distribution`); ``R_prev``/``R_next`` run over
    the basis rows of the node's flat entering/exiting cuts (dimension 1
    at the root / leaves).  Vectorised: the fragment's records are stacked
    into one array with an axis per entering preparation code and exiting
    setting letter, then each exiting cut's ``U_k[m, t, r]`` and each
    entering cut's ``V_k[m, c]`` transfer matrix is contracted in with a
    single ``tensordot``.

    ``dtype`` is the accumulation precision: the default ``float64`` is
    bit-identical to the historical builder; ``float32`` halves memory
    traffic and is pinned to the float64 result at ≤ 1e-6 by the test
    suite (quasi-probabilities are O(1) and the contractions are short, so
    single precision loses no physics).
    """
    frag, records, prev_bases, next_bases, rows_prev, rows_next, fallback = (
        _chain_rows(data, index, bases)
    )
    Kp, Kn = frag.num_prep, frag.num_meas

    # entering side: preparation codes referenced by each cut's basis pool
    codes: list[list[str]] = []
    for pool in prev_bases:
        need: list[str] = []
        for m in pool:
            for c in _PREP_OF[m]:
                if c not in need:
                    need.append(c)
        codes.append(need)
    # exiting side: physical setting letters referenced by each pool
    letters: list[list[str]] = []
    for k, pool in enumerate(next_bases):
        need = []
        for m in pool:
            s = m if m != "I" else fallback[k]
            if s not in need:
                need.append(s)
        letters.append(need)

    needed = list(
        itertools.product(
            itertools.product(*codes), itertools.product(*letters)
        )
    )
    for combo in needed:
        if combo not in records:
            raise ReconstructionError(
                f"fragment {index} is missing variant {combo}"
            )

    n_out_dim = 1 << frag.n_out
    # astype is a no-op on the default float64 path (copy=False), keeping
    # it bit-identical; float32 converts once, before the heavy contractions
    T = np.stack([records[c] for c in needed]).astype(dtype, copy=False)
    shape = (
        tuple(len(c) for c in codes)
        + tuple(len(l) for l in letters)
        + (n_out_dim,)
        + (2,) * Kn
    )
    T = T.reshape(shape)
    # C-order split of b_cut yields bit axes most-significant first; reverse
    # them so trailing axis j = exiting cut j.
    lead = Kp + Kn + 1
    T = T.transpose(
        tuple(range(lead)) + tuple(range(lead + Kn - 1, lead - 1, -1))
    )

    # exiting cuts: U_k[m, t, r] = δ(t = setting(m)) · w_m(r)
    for k in range(Kn):
        pool, need = next_bases[k], letters[k]
        U = np.zeros((len(pool), len(need), 2), dtype=dtype)
        for i, m in enumerate(pool):
            t = need.index(m if m != "I" else fallback[k])
            U[i, t, 0] = 1.0
            U[i, t, 1] = 1.0 if m == "I" else -1.0
        nt = Kn - k  # remaining setting axes; r_k sits just past b_out
        T = np.moveaxis(
            np.tensordot(U, T, axes=([1, 2], [Kp, Kp + nt + 1])), 0, -1
        )
    # entering cuts: V_k[m, c] = eigenvalue weight of preparation c in m
    for k in range(Kp):
        pool, need = prev_bases[k], codes[k]
        V = np.zeros((len(pool), len(need)), dtype=dtype)
        for i, m in enumerate(pool):
            plus, minus = _PREP_OF[m]
            V[i, need.index(plus)] = 1.0
            V[i, need.index(minus)] = 1.0 if m == "I" else -1.0
        T = np.moveaxis(np.tensordot(V, T, axes=([1], [0])), 0, -1)

    # T axes: (b_out, m_next_0..m_next_{Kn-1}, m_prev_0..m_prev_{Kp-1})
    # -> (rows_prev, rows_next, b_out)
    T = np.moveaxis(T, 0, -1)
    T = T.transpose(
        tuple(range(Kn, Kn + Kp)) + tuple(range(Kn)) + (Kn + Kp,)
    )
    out = np.ascontiguousarray(
        T.reshape(len(rows_prev), len(rows_next), n_out_dim)
    )
    return out, rows_prev, rows_next


def _identity_row_index(pools) -> int:
    """Flat index of the all-``I`` basis row in a C-order pool product.

    The ``I`` component of every cut's transfer factor is the *marginal*
    (entering side: unsigned sum over preparation eigenstates; exiting
    side: unsigned sum over outcome bits), so this row of any reduced /
    accumulated tensor is the mixed-input marginal the pruning policies
    score — see :mod:`repro.cutting.sparse`.  Golden neglect never drops
    ``I`` (:func:`repro.core.neglect.reduced_bases`), so the row exists
    for every reduced pool; a custom pool without ``I`` cannot be pruned.
    """
    idx = 0
    for pool in pools:
        if "I" not in pool:
            raise ReconstructionError(
                f"prune= needs the 'I' basis in every pool, missing in {pool}"
            )
        idx = idx * len(pool) + pool.index("I")
    return idx


def build_tree_fragment_tensor(
    data, index: int, bases=None, dtype=DEFAULT_DTYPE, prune=None
):
    """Reduced tensor of one tree node: one row axis per child group.

    Shape ``(R_in, R_out_1, .., R_out_C, 2^{n_out})`` with the child axes
    in the node's exiting-group order.  The heavy lifting is the flat
    kernel of :func:`build_chain_fragment_tensor` — the node's exiting
    basis rows are the product over its child groups' rows in flat cut
    order, so splitting the flat row axis into per-group axes is a C-order
    reshape.  Returns ``(tensor, rows_in, rows_per_group)``.

    ``dtype`` selects the accumulation precision (float64 default, exactly
    the historical result; float32 fast path pinned at ≤ 1e-6).  With a
    ``prune=`` policy (:func:`repro.cutting.sparse.threshold` /
    :func:`~repro.cutting.sparse.top_k`) the node's own output axis is
    pruned by its mixed-input marginal — the all-``I`` row over the
    entering *and* exiting pools — and the return grows to ``(tensor,
    rows_in, rows_per_group, kept, eps)``: ``kept`` are the surviving
    output indices (sorted, little-endian over ``frag.out_original``
    order) and ``eps`` the accumulated error-bound mass of everything
    discarded, in final-probability units (the true final mass any
    discarded outcome could carry is at most its entry of the all-``I``
    row, because the entering state obeys ``ρ ≤ 2^{K_in}·I/2^{K_in}``
    and the rest of the reconstruction is completely positive).
    """
    tree = _tree_of(data)
    frag = tree.fragments[index]
    T, rows_prev, _ = build_chain_fragment_tensor(data, index, bases, dtype)
    group_bases = _normalise_chain_bases(bases, tree.group_sizes)
    rows_per_group = [
        list(itertools.product(*group_bases[h])) for h in frag.meas_groups
    ]
    shape = (
        (len(rows_prev),)
        + tuple(len(r) for r in rows_per_group)
        + (1 << frag.n_out,)
    )
    T = T.reshape(shape)
    if prune is None:
        return T, rows_prev, rows_per_group

    in_pools = [
        pool for h in frag.in_groups for pool in group_bases[h]
    ]
    sel = (_identity_row_index(in_pools),) + tuple(
        _identity_row_index(group_bases[h]) for h in frag.meas_groups
    )
    # bound-units mass: 2^{K_in} × the node's mixed-input output marginal
    # (exiting cut bits marginalised by the exit I rows)
    mass = np.maximum(T[sel], 0.0)
    scale_in = float(1 << len(in_pools))
    keep = prune.select(mass / scale_in)
    eps = float(mass.sum() - mass[keep].sum())
    if keep.size < T.shape[-1]:
        T = np.ascontiguousarray(T[..., keep])
    return T, rows_prev, rows_per_group, keep, eps


def reconstruct_tree_distribution(
    data,
    bases=None,
    postprocess: str = "clip",
    prune: "PrunePolicy | None" = None,
    dtype=DEFAULT_DTYPE,
    plan=None,
):
    """Full output distribution of an uncut circuit from fragment data.

    The single reconstruction engine: every node's reduced tensor is built
    once, then the fragment network is contracted pairwise along a
    :class:`~repro.cutting.contraction.ContractionPlan` — each merge is one
    GEMM over the cut-group row axes the two clusters share, written in
    the merged layout, so per-group row counts meet only their neighbours
    and never multiply globally.  The last merge writes the ``2^n`` result
    straight into qubit order, one cache-sized block at a time, and runs
    the exact ``1/2^K`` scale (or the ``"clip"`` clip and its sum) on each
    block before it lands: a dense reconstruction holds one ``2^n`` array
    (``"simplex"`` returns a second, projected one).  An unknown
    ``postprocess`` is rejected before any tensor is built.  ``data`` is
    :class:`~repro.cutting.execution.TreeFragmentData` of a tree or DAG;
    the paper's single cut is the 2-node tree, and chains run through
    :func:`reconstruct_chain_distribution`.  ``bases``
    lists per-group per-cut basis pools (``bases[g][k]``; ``None`` = full
    ``{I,X,Y,Z}``), letting golden cuts neglect elements group by group —
    each group's Kronecker factors are sliced independently.

    ``prune=None`` (default) returns the dense ``2^n`` vector.  With a
    policy (:func:`repro.cutting.sparse.threshold` /
    :func:`~repro.cutting.sparse.top_k`) the contraction prunes outcome
    columns after every merge and returns a
    :class:`~repro.cutting.sparse.SparseDistribution` whose
    ``prune_bound`` rigorously bounds the L1 (hence TV) distance to the
    dense result of the same data; ``top_k(2^n)`` (or ``threshold(0)`` on
    non-negative data) keeps everything and is bit-identical to dense.
    ``dtype`` selects float64 (default) or the float32 fast path (pinned
    at ≤ 1e-6).

    ``plan=`` selects the contraction order.  ``None`` runs the fixed
    leaves-to-root plan on pure trees and searches a plan automatically
    on DAGs; a method string (``"auto"``/``"fixed"``/``"greedy"``/
    ``"dp"``) searches with that planner, and an explicit plan object is
    validated and used as given (every plan agrees to ≤ 1e-9).
    """
    if postprocess not in _POSTPROCESS_MODES:
        raise ReconstructionError(f"unknown postprocess mode {postprocess!r}")
    tree = _tree_of(data)
    plan = _resolve_plan(tree, bases, plan)
    if prune is not None:
        idx, values, order, bound = _contract_network_pruned(
            data, tree, bases, prune, dtype, plan
        )
        # value-index bit j carries original qubit order[j]
        final = _move_bits(idx, range(len(order)), order)
        srt = np.argsort(final)
        sd = SparseDistribution(
            num_qubits=len(order),
            indices=final[srt],
            values=values[srt],
            prune_bound=bound,
        )
        return postprocess_sparse(sd, postprocess)
    # adjacent fragments share their group's rows by construction: both
    # sides are itertools.product over the same per-group pools in `bases`
    tensors = [
        build_tree_fragment_tensor(data, i, bases, dtype)[0]
        for i in range(tree.num_fragments)
    ]
    scale = 1.0 / float(1 << tree.total_cuts)
    return _contract_network(tensors, tree, plan, bases, postprocess, scale)


def reconstruct_chain_distribution(
    data,
    bases=None,
    postprocess: str = "clip",
    prune: "PrunePolicy | None" = None,
    dtype=DEFAULT_DTYPE,
    plan=None,
):
    """Full output distribution from chain fragment data.

    Thin wrapper over :func:`reconstruct_tree_distribution` — a chain is
    the linear tree, and there is one contraction engine, not two.
    ``prune=``/``dtype=``/``plan=`` carry the same semantics.
    """
    return reconstruct_tree_distribution(
        data,
        bases=bases,
        postprocess=postprocess,
        prune=prune,
        dtype=dtype,
        plan=plan,
    )


def reconstruct_counts(
    data,
    shots: int,
    bases=None,
    postprocess: str = "clip",
    prune: "PrunePolicy | None" = None,
    dtype=DEFAULT_DTYPE,
    seed: "int | np.random.Generator | None" = None,
    plan=None,
) -> "Mapping[str, int]":
    """Reconstruction rendered as counts.

    A convenience for downstream code written against backend ``counts``
    interfaces (a :class:`~repro.sim.sampler.Counts` on the dense path, a
    plain ``dict`` on a pruned one); ``data``, ``bases``, ``prune=``,
    ``dtype=`` and ``plan=`` are those of
    :func:`reconstruct_tree_distribution`.  With
    ``seed=None`` (default) the distribution is scaled to ``shots`` and
    rounded — deterministic, no RNG is created or consumed.  Passing a
    seed draws one multinomial sample instead; on a pruned reconstruction
    the draw runs over the kept outcomes only, so the dense ``2^n`` vector
    is never materialised.
    """
    from repro.sim.sampler import probs_to_counts, sample_counts

    probs = reconstruct_tree_distribution(
        data,
        bases=bases,
        postprocess=postprocess,
        prune=prune,
        dtype=dtype,
        plan=plan,
    )
    if isinstance(probs, SparseDistribution):
        if seed is None:
            return probs.to_counts(shots)
        return probs.sample_counts(shots, seed)
    n = int(np.log2(probs.size))
    if seed is None:
        return probs_to_counts(probs, shots, n)
    return sample_counts(probs, shots, seed, n)


# ---------------------------------------------------------------------------


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a vector onto the probability simplex.

    Standard O(n log n) algorithm (Held–Wolfe–Crowder): sort, find the
    largest prefix whose water-filling threshold keeps entries positive.
    """
    v = np.asarray(v, dtype=np.float64)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho_idx = np.nonzero(u - css / (np.arange(v.size) + 1) > 0)[0]
    if rho_idx.size == 0:
        out = np.zeros_like(v)
        out[np.argmax(v)] = 1.0
        return out
    rho = rho_idx[-1]
    tau = css[rho] / (rho + 1.0)
    return np.clip(v - tau, 0.0, None)
