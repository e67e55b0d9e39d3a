"""Searched contraction plans over the fragment network.

The reconstruction of a fragment tree/DAG is a tensor-network
contraction: fragment ``i`` is a tensor with one *row axis per incident
cut group* (each group's axis appears on exactly two fragments — the
group's source and destination) plus a free output axis of width
``2^{n_out}``.  Contracting the whole network pairwise — repeatedly
merging two clusters of fragments over the group axes they share — yields
the joint output distribution; the *order* of the merges does not change
the result but changes the intermediate sizes, exactly as in
``opt_einsum``-style einsum path optimisation.

This module makes that order an explicit, serialisable
:class:`ContractionPlan`:

* :func:`fixed_plan` — the historical leaves-to-root order (reverse
  topological, children merged in ascending group order), the baseline
  the benchmarks compare against; on a pure tree it is the very sequence
  the pre-DAG kernel ran;
* :func:`greedy_plan` — repeatedly merge the adjacent cluster pair with
  the cheapest :func:`pairwise cost <merge_cost>` (deterministic
  tie-breaks), linear-ish and good on almost every real shape;
* :func:`dp_plan` — exact dynamic programming over subsets (optimal
  pairwise order, ``O(3^N)``; capped at :data:`DP_MAX_NODES` nodes);
* :func:`search_plan` with ``method="auto"`` — DP when the network is
  small enough, greedy otherwise.

Plans are built from a :class:`NetworkSpec` — a pure shape description
(nodes, ``(src, dst, rows)`` per group edge, per-node output widths) —
so planners can be unit-tested on hand-built worst cases without any
fragment data; :func:`network_spec_for_tree` derives the spec of a real
:class:`~repro.cutting.tree.FragmentTree` under given (possibly
golden-reduced) basis pools.  The cost model prices one merge as

    ``prod(result dims) × prod(shared group rows)``

i.e. the FLOP count of the GEMM the executor will issue —
``D_a · D_b · Π_{g open on either side} R_g``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

from repro.exceptions import ReconstructionError

__all__ = [
    "DP_MAX_NODES",
    "ContractionPlan",
    "NetworkSpec",
    "dp_plan",
    "fixed_plan",
    "greedy_plan",
    "merge_cost",
    "network_spec_for_tree",
    "plan_cost",
    "search_plan",
]

#: largest network the exact DP planner will take on (``O(3^N)`` subsets)
DP_MAX_NODES = 12


@dataclass(frozen=True)
class NetworkSpec:
    """Pure shape of a fragment network.

    ``edges[g] = (src, dst, rows)``: cut group ``g`` links fragment
    ``src`` to fragment ``dst`` with a basis-row axis of length ``rows``
    (the product of the group's per-cut pool sizes).  ``out_dims[i]`` is
    fragment ``i``'s free output width (``2^{n_out}``).
    """

    num_nodes: int
    edges: tuple[tuple[int, int, int], ...]
    out_dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ReconstructionError("a network needs at least one node")
        if len(self.out_dims) != self.num_nodes:
            raise ReconstructionError("out_dims length != num_nodes")
        for g, (s, d, r) in enumerate(self.edges):
            if not (0 <= s < self.num_nodes and 0 <= d < self.num_nodes):
                raise ReconstructionError(f"edge {g} endpoint out of range")
            if s == d:
                raise ReconstructionError(f"edge {g} is a self-loop")
            if r < 1:
                raise ReconstructionError(f"edge {g} has no basis rows")

    def incident(self, node: int) -> list[int]:
        """Group ids touching one node."""
        return [
            g for g, (s, d, _) in enumerate(self.edges) if node in (s, d)
        ]


@dataclass(frozen=True)
class ContractionPlan:
    """A pairwise merge sequence over fragment clusters.

    ``steps[t] = (a, b)``: merge the cluster currently containing
    fragment ``a`` with the one containing fragment ``b`` (they must be
    distinct clusters); the merged cluster is afterwards addressed by
    either member.  A valid plan for an ``N``-node connected network has
    exactly ``N - 1`` steps and ends with a single cluster.  ``cost`` is
    the planner's total predicted FLOPs under its spec (informational —
    re-derive with :func:`plan_cost` after reduction changes pool sizes).
    """

    num_nodes: int
    steps: tuple[tuple[int, int], ...]
    method: str = "explicit"
    cost: float = 0.0

    def validate(self, num_nodes: "int | None" = None) -> None:
        """Check the steps form a full pairwise merge of ``num_nodes``."""
        n = self.num_nodes if num_nodes is None else num_nodes
        if self.num_nodes != n:
            raise ReconstructionError(
                f"plan covers {self.num_nodes} fragments, network has {n}"
            )
        if len(self.steps) != n - 1:
            raise ReconstructionError(
                f"a {n}-node network needs {n - 1} merge steps, "
                f"plan has {len(self.steps)}"
            )
        cluster = list(range(n))

        def find(x: int) -> int:
            while cluster[x] != x:
                cluster[x] = cluster[cluster[x]]
                x = cluster[x]
            return x

        for a, b in self.steps:
            if not (0 <= a < n and 0 <= b < n):
                raise ReconstructionError(f"merge step ({a}, {b}) out of range")
            ra, rb = find(a), find(b)
            if ra == rb:
                raise ReconstructionError(
                    f"merge step ({a}, {b}) joins a cluster with itself"
                )
            cluster[rb] = ra

    # -- serialisation ------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "num_nodes": self.num_nodes,
            "steps": [list(s) for s in self.steps],
            "method": self.method,
            "cost": self.cost,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: dict) -> "ContractionPlan":
        plan = cls(
            num_nodes=int(payload["num_nodes"]),
            steps=tuple(
                (int(a), int(b)) for a, b in payload["steps"]
            ),
            method=str(payload.get("method", "explicit")),
            cost=float(payload.get("cost", 0.0)),
        )
        plan.validate()
        return plan

    @classmethod
    def from_json(cls, text: str) -> "ContractionPlan":
        return cls.from_dict(json.loads(text))


def network_spec_for_tree(tree, bases=None) -> NetworkSpec:
    """The :class:`NetworkSpec` of a fragment tree/DAG under basis pools.

    ``bases[g][k]`` is cut ``k`` of group ``g``'s reconstruction pool
    (``None`` = full ``{I, X, Y, Z}`` everywhere), so golden neglect
    shrinks the edge row counts the planner prices — a heavily neglected
    group is a cheaper axis and the searched order adapts to it.
    """
    edges = []
    for g, k in enumerate(tree.group_sizes):
        rows = 1
        for c in range(k):
            rows *= 4 if bases is None else max(len(bases[g][c]), 1)
        edges.append((tree.group_src[g], tree.group_dst[g], rows))
    return NetworkSpec(
        num_nodes=tree.num_fragments,
        edges=tuple(edges),
        out_dims=tuple(1 << f.n_out for f in tree.fragments),
    )


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------


class _Cluster:
    """Mutable merge state: member set, open group ids, output width."""

    __slots__ = ("members", "open", "dim")

    def __init__(self, members: set, open_groups: set, dim: float):
        self.members = members
        self.open = open_groups
        self.dim = dim


def _initial_clusters(spec: NetworkSpec) -> dict[int, _Cluster]:
    return {
        i: _Cluster({i}, set(spec.incident(i)), float(spec.out_dims[i]))
        for i in range(spec.num_nodes)
    }


def merge_cost(spec: NetworkSpec, a: _Cluster, b: _Cluster) -> float:
    """Predicted FLOPs of merging two clusters.

    ``D_a · D_b · Π R_g`` over every group open on either side — the
    element count of the merge GEMM's implicit loop nest (shared axes are
    summed over, surviving axes materialise in the result).
    """
    cost = a.dim * b.dim
    for g in a.open | b.open:
        cost *= spec.edges[g][2]
    return cost


def _merge(a: _Cluster, b: _Cluster) -> _Cluster:
    return _Cluster(
        a.members | b.members, a.open ^ b.open, a.dim * b.dim
    )


def plan_cost(spec: NetworkSpec, plan: ContractionPlan) -> float:
    """Total predicted FLOPs of running ``plan`` on ``spec``."""
    plan.validate(spec.num_nodes)
    clusters = _initial_clusters(spec)
    rep = list(range(spec.num_nodes))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    total = 0.0
    for a, b in plan.steps:
        ra, rb = find(a), find(b)
        total += merge_cost(spec, clusters[ra], clusters[rb])
        clusters[ra] = _merge(clusters[ra], clusters.pop(rb))
        rep[rb] = ra
    return total


# ---------------------------------------------------------------------------
# planners
# ---------------------------------------------------------------------------


def fixed_plan(spec: NetworkSpec) -> ContractionPlan:
    """The historical fixed leaves-to-root order as an explicit plan.

    Nodes are visited in reverse index (= reverse topological) order and
    each node's exiting groups are merged in ascending group order — on a
    pure tree this is exactly the merge sequence of the pre-DAG
    contraction kernel; on a DAG it is the naive baseline the searched
    plans are benchmarked against.  Groups whose endpoints already share
    a cluster (the closing edge of a diamond) are skipped.
    """
    rep = list(range(spec.num_nodes))

    def find(x: int) -> int:
        while rep[x] != x:
            rep[x] = rep[rep[x]]
            x = rep[x]
        return x

    steps: list[tuple[int, int]] = []
    for i in reversed(range(spec.num_nodes)):
        for g, (s, d, _) in enumerate(spec.edges):
            if s != i:
                continue
            ra, rb = find(i), find(d)
            if ra == rb:
                continue
            steps.append((i, d))
            rep[rb] = ra
    plan = ContractionPlan(
        num_nodes=spec.num_nodes, steps=tuple(steps), method="fixed"
    )
    # plan_cost validates the steps
    return ContractionPlan(
        num_nodes=spec.num_nodes,
        steps=tuple(steps),
        method="fixed",
        cost=plan_cost(spec, plan),
    )


def greedy_plan(spec: NetworkSpec) -> ContractionPlan:
    """Cheapest-adjacent-pair greedy search.

    At every step the two clusters sharing at least one open group with
    the lowest :func:`merge_cost` are merged (ties broken by the lowest
    member indices, so the plan is deterministic).  Disconnected
    remainders — possible only on specs that are not a connected
    fragment graph — fall back to outer-product merges.
    """
    clusters = _initial_clusters(spec)
    steps: list[tuple[int, int]] = []
    while len(clusters) > 1:
        best = None
        for ra, rb in itertools.combinations(sorted(clusters), 2):
            a, b = clusters[ra], clusters[rb]
            if not (a.open & b.open):
                continue
            key = (merge_cost(spec, a, b), ra, rb)
            if best is None or key < best:
                best = key
        if best is None:
            ra, rb = sorted(clusters)[:2]
        else:
            _, ra, rb = best
        steps.append((min(clusters[ra].members), min(clusters[rb].members)))
        clusters[ra] = _merge(clusters[ra], clusters.pop(rb))
    plan = ContractionPlan(
        num_nodes=spec.num_nodes, steps=tuple(steps), method="greedy"
    )
    return ContractionPlan(
        num_nodes=spec.num_nodes,
        steps=tuple(steps),
        method="greedy",
        cost=plan_cost(spec, plan),
    )


def dp_plan(spec: NetworkSpec) -> ContractionPlan:
    """Optimal pairwise order by dynamic programming over subsets.

    ``best[S]`` is the cheapest cost of contracting the node subset ``S``
    into one cluster; every split of ``S`` into two non-empty halves is
    considered (``O(3^N)`` submask enumeration), so the result is the
    true optimum over pairwise merge orders.  Raises beyond
    :data:`DP_MAX_NODES` nodes — use :func:`search_plan` to fall back to
    greedy automatically.
    """
    n = spec.num_nodes
    if n > DP_MAX_NODES:
        raise ReconstructionError(
            f"dp planner is capped at {DP_MAX_NODES} fragments (got {n}); "
            'use search_plan(spec, method="auto")'
        )
    # open-group product and output-dim product per subset, O(2^N · G)
    dims = [0.0] * (1 << n)
    opens = [0] * (1 << n)  # bitmask over groups
    for S in range(1, 1 << n):
        low = S & -S
        i = low.bit_length() - 1
        rest = S ^ low
        dims[S] = spec.out_dims[i] * (dims[rest] if rest else 1.0)
        mask = 0
        for g, (s, d, _) in enumerate(spec.edges):
            inside = ((S >> s) & 1) + ((S >> d) & 1)
            if inside == 1:
                mask |= 1 << g
        opens[S] = mask

    def pair_cost(A: int, B: int) -> float:
        cost = dims[A] * dims[B]
        m = opens[A] | opens[B]
        g = 0
        while m:
            if m & 1:
                cost *= spec.edges[g][2]
            m >>= 1
            g += 1
        return cost

    best = [0.0] * (1 << n)
    split = [0] * (1 << n)
    full = (1 << n) - 1
    for S in range(1, full + 1):
        if S & (S - 1) == 0:  # singleton
            continue
        best[S] = float("inf")
        # canonical halves: A always contains S's lowest node
        low = S & -S
        A = (S - 1) & S
        while A:
            if A & low:
                B = S ^ A
                c = best[A] + best[B] + pair_cost(A, B)
                if c < best[S]:
                    best[S] = c
                    split[S] = A
            A = (A - 1) & S
    # unwind the split tree into a post-order pairwise step list
    steps: list[tuple[int, int]] = []

    def emit(S: int) -> int:
        if S & (S - 1) == 0:
            return S.bit_length() - 1
        A = split[S]
        ra = emit(A)
        rb = emit(S ^ A)
        steps.append((ra, rb))
        return min(ra, rb)

    emit(full)
    plan = ContractionPlan(
        num_nodes=n, steps=tuple(steps), method="dp", cost=best[full]
    )
    plan.validate(n)
    return plan


def search_plan(
    spec: NetworkSpec, method: str = "auto"
) -> ContractionPlan:
    """Front door: pick a contraction plan for one network shape.

    ``method``: ``"fixed"`` (historical order), ``"greedy"``, ``"dp"``
    (exact, ≤ :data:`DP_MAX_NODES` nodes) or ``"auto"`` — DP when small
    enough, greedy otherwise, never worse than the fixed order (the
    fixed plan is kept when it prices below the search result, so
    ``auto`` is a pure improvement).
    """
    if method == "fixed":
        return fixed_plan(spec)
    if method == "greedy":
        return greedy_plan(spec)
    if method == "dp":
        return dp_plan(spec)
    if method != "auto":
        raise ReconstructionError(
            f'contraction method must be "auto"/"fixed"/"greedy"/"dp", '
            f"got {method!r}"
        )
    searched = (
        dp_plan(spec)
        if spec.num_nodes <= DP_MAX_NODES
        else greedy_plan(spec)
    )
    baseline = fixed_plan(spec)
    return searched if searched.cost <= baseline.cost else baseline
