"""Analytic (exact) golden-cutting-point finder — Definition 1 of the paper.

A basis ``M*`` is golden at cut ``k*`` when

.. math::

    \\sum_{r_{c(k^*)}} r_{c(k^*)}\\,\\mathrm{tr}(O_{f1} \\rho_{f1}(M^r)) = 0

for *every* value of the remaining indices (other cuts' bases and outcomes,
and — for the distribution workload — every output projector of the
measuring fragment).

The exact finder evaluates each measuring fragment's cached statevector for
every measurement setting and checks the weighted outcome differences
pointwise, cut group by cut group on a fragment tree (the paper's single
cut is the 2-node tree).  This is the "golden cutting point known a
priori" mode of the paper's experiments; the finite-shot detector lives in
:mod:`repro.core.detection`.
"""

from __future__ import annotations


import numpy as np

from repro.config import ATOL
from repro.exceptions import DetectionError

__all__ = [
    "chain_definition1_deviation",
    "find_chain_golden_bases_analytic",
    "find_tree_golden_bases_analytic",
    "iter_chain_cut_deltas",
    "select_all_golden",
    "tree_definition1_deviation",
]


# --------------------------------------------------------------------------
# chain generalisation: Definition 1 per cut group
# --------------------------------------------------------------------------


def iter_chain_cut_deltas(records, K: int, cut: int, basis: str):
    """Yield ``(delta, mass)`` arrays per relevant variant of one candidate.

    The shared kernel of the analytic chain deviation and the chain
    detector's z-statistic: for every ``(inits, setting)`` record whose
    setting measures ``cut`` in ``basis``, the eigenvalue-weighted outcome
    differences ``A[:, r_cut=0] − A[:, r_cut=1]`` and the corresponding
    total masses, over all ``(b_out, r_{-cut})`` cells.  Keeping both
    consumers on one kernel pins them to the same record layout and cut-bit
    convention.
    """
    if basis not in ("X", "Y", "Z"):
        raise DetectionError(f"golden candidates are X/Y/Z, got {basis!r}")
    if not 0 <= cut < K:
        raise DetectionError(f"cut index {cut} out of range (K={K})")
    relevant = [combo for combo in records if combo[1][cut] == basis]
    if not relevant:
        raise DetectionError(
            f"no variant measures cut {cut} in basis {basis}"
        )
    r = np.arange(1 << K)
    lo = np.nonzero(((r >> cut) & 1) == 0)[0]
    hi = lo | (1 << cut)
    for combo in relevant:
        A = records[combo]  # (2^{n_out}, 2^{K})
        yield A[:, lo] - A[:, hi], A[:, lo] + A[:, hi]


def _tree_group_frame(data, group: int, cut: int):
    """Resolve one tree cut-group candidate into its source node's frame.

    Returns ``(records, K_flat, flat_cut)``: the source fragment's records,
    its flat exiting cut count and the candidate cut's position in the flat
    layout (the group's offset plus the in-group cut index).  On a chain
    the source node *is* the group and the offset is zero, so this
    degenerates to the pre-tree bookkeeping exactly.
    """
    tree = data.tree
    if not 0 <= group < tree.num_groups:
        raise DetectionError(
            f"cut group {group} out of range ({tree.num_groups} groups)"
        )
    if not 0 <= cut < tree.group_sizes[group]:
        raise DetectionError(
            f"cut index {cut} out of range (K={tree.group_sizes[group]})"
        )
    src = tree.group_src[group]
    frag = tree.fragments[src]
    return data.records[src], frag.num_meas, frag.group_offset(group) + cut


def tree_definition1_deviation(
    data, group: int, cut: int, basis: str
) -> float:
    """Max |Σ_r r · p| over all contexts of one tree cut group — 0 iff
    Definition 1 holds for the group's candidate.

    ``data`` is a :class:`~repro.cutting.execution.TreeFragmentData` (exact
    or finite-shot); the tested fragment is the group's **source node**
    (``data.records[tree.group_src[group]]``), and the candidate cut is
    addressed within that node's *flat* cut layout — at a branching node
    the contexts therefore also include the sibling groups' settings and
    raw outcomes.  Interior fragments are additionally downstream of their
    entering group, so the deviation is maximised over the **preparation
    contexts** entering from the parent in addition to the root's
    contexts (outputs ``b_out``, the node's other measurement settings, and
    their raw outcomes).  Fragment response is linear in the entering
    state, so a deviation of zero on a context pool spanning the parent
    group's kept operator space (see
    :func:`repro.core.neglect.spanning_init_tuples`) certifies Definition 1
    for *every* preparation the reconstruction can inject there.
    """
    records, K_flat, flat_cut = _tree_group_frame(data, group, cut)
    worst = 0.0
    for delta, _ in iter_chain_cut_deltas(records, K_flat, flat_cut, basis):
        worst = max(worst, float(np.max(np.abs(delta))))
    return worst


def chain_definition1_deviation(
    data, group: int, cut: int, basis: str
) -> float:
    """Chain alias of :func:`tree_definition1_deviation` (linear tree)."""
    return tree_definition1_deviation(data, group, cut, basis)


def select_all_golden(found: "dict[int, list[str]]") -> dict[int, tuple[str, ...]]:
    """Default selection policy: neglect every analytically-found basis."""
    return {k: tuple(bases) for k, bases in found.items() if bases}


def find_tree_golden_bases_analytic(
    tree, atol: float = ATOL, pool=None, select=None
) -> "tuple[list[dict[int, list[str]]], list[dict | None]]":
    """Exact golden bases per cut group of a fragment tree.

    Sweeps the tree **root to leaves** (a BFS in topological node order —
    on a chain this is exactly the left-to-right sweep).  Each node with
    exiting cuts is evaluated over every ``(prep context, setting)`` combo,
    where the prep contexts span exactly the operator space its *parent*
    group still injects after its own committed neglect: a basis kept at
    the parent widens the context pool, a neglected one shrinks it.  A
    joint-prep DAG node conditions on the flat union of *all* entering
    groups' committed maps (offset by :meth:`TreeFragment.prep_offset`).  That
    conditioning is what makes e.g. a real-amplitude tree jointly Y-golden
    — a fragment fed a ``Y`` row is *not* Y-golden pointwise, but once the
    parent group neglects ``Y`` that context never arises.  The sweep must
    therefore commit to a selection per group before descending:
    ``select`` maps ``{cut: [found bases]}`` to the golden map actually
    neglected (default: neglect everything found, the maximal reduction).
    A branching node verdicts all of its child groups from the same
    evaluation — its settings run over the flat cut union, so each group's
    deviation is maximised over the sibling groups' settings and outcomes
    too.

    Returns ``(found, selected)``: per cut group (spec order), the bases
    passing Definition 1 on the conditioned contexts, and the golden map
    the sweep committed to (``None`` where nothing was selected).  ``pool``
    may share the pipeline's ideal
    :class:`~repro.cutting.cache.TreeCachePool`, so the finder costs no
    simulation beyond the N cached bodies.
    """
    from repro.core.neglect import tree_pilot_combos
    from repro.cutting.execution import exact_tree_data

    if select is None:
        select = select_all_golden
    if pool is None:
        from repro.cutting.cache import TreeCachePool, TreeFragmentSimCache

        pool = TreeCachePool(
            tree, [TreeFragmentSimCache(f) for f in tree.fragments]
        )
    found_per_group: "list[dict[int, list[str]] | None]" = (
        [None] * tree.num_groups
    )
    selected: "list[dict | None]" = [None] * tree.num_groups
    for i, frag in enumerate(tree.fragments):
        if not frag.num_meas:
            continue  # leaves have nothing to test
        prev: dict = {}
        for h in frag.in_groups:
            sel_h = selected[h]
            if sel_h:
                off = frag.prep_offset(h)
                for k, v in sel_h.items():
                    prev[off + k] = v
        combos = tree_pilot_combos(
            frag.num_prep, frag.num_meas, prev or None
        )
        variants: "list[list | None]" = [None] * tree.num_fragments
        variants[i] = combos
        data = exact_tree_data(tree, variants=variants, pool=pool)
        for g in frag.meas_groups:
            found: dict[int, list[str]] = {}
            for k in range(tree.group_sizes[g]):
                found[k] = [
                    b
                    for b in ("X", "Y", "Z")
                    if tree_definition1_deviation(data, g, k, b) <= atol
                ]
            found_per_group[g] = found
            sel = select(found)
            selected[g] = dict(sel) if sel else None
    return found_per_group, selected


def find_chain_golden_bases_analytic(
    chain, atol: float = ATOL, pool=None, select=None
) -> "tuple[list[dict[int, list[str]]], list[dict | None]]":
    """Chain alias of :func:`find_tree_golden_bases_analytic`.

    On a linear tree the root-to-leaves BFS *is* the left-to-right chain
    sweep (fragment ``g`` verdicts group ``g``, conditioned on group
    ``g − 1``'s committed neglect), so the chain entry point is a thin
    wrapper over the single tree engine.
    """
    return find_tree_golden_bases_analytic(
        chain, atol=atol, pool=pool, select=select
    )
