"""Unit tests of the searched contraction-plan machinery.

Plans are pure shape objects (:class:`~repro.cutting.contraction
.NetworkSpec` → :class:`~repro.cutting.contraction.ContractionPlan`), so
the planners can be pinned on hand-built worst cases without any
fragment data:

* serialisation round-trips (dict and JSON) and loud validation of
  malformed step sequences;
* the cost model prices the fixed order on a bench-sized DAG well above
  the searched plan, and both plans contract to the same result (the
  committed perf claim of ``benchmarks/bench_dag_contraction.py`` in
  miniature — the timings themselves live in the benchmark);
* a hand-built network where greedy's locally-cheapest merge is globally
  wrong — DP must beat it, and DP must equal the brute-force optimum
  over every pairwise merge order;
* golden-reduced basis pools shrink the spec's edge rows, and the
  planners adapt.
"""

import itertools

import numpy as np
import pytest

from repro.core.neglect import reduced_bases
from repro.cutting.contraction import (
    DP_MAX_NODES,
    ContractionPlan,
    NetworkSpec,
    dp_plan,
    fixed_plan,
    greedy_plan,
    network_spec_for_tree,
    plan_cost,
    search_plan,
)
from repro.cutting.tree import partition_tree
from repro.exceptions import ReconstructionError
from repro.harness.scaling import dag_cut_circuit, tree_cut_circuit

#: a path network 1—0—2—3 with one cheap edge (rows 4) and two expensive
#: ones (rows 256): greedy grabs the cheap (0, 1) merge first, which
#: inflates the cluster's output width to 16·16 before the expensive
#: edges are summed — the globally optimal order contracts the expensive
#: 2—3 edge first.  Hand-built worst case pinning greedy ≠ DP.
GREEDY_TRAP = NetworkSpec(
    num_nodes=4,
    edges=((0, 1, 4), (0, 2, 256), (2, 3, 256)),
    out_dims=(16, 16, 8, 8),
)


def brute_force_optimum(spec: NetworkSpec) -> float:
    """Exhaustive minimum cost over every pairwise merge sequence."""

    def open_of(members):
        return {
            g
            for g, (s, d, _) in enumerate(spec.edges)
            if (s in members) != (d in members)
        }

    def dim(members):
        return float(np.prod([spec.out_dims[m] for m in members]))

    best = [float("inf")]

    def recurse(clusters, cost):
        if len(clusters) == 1:
            best[0] = min(best[0], cost)
            return
        if cost >= best[0]:
            return
        for i, j in itertools.combinations(range(len(clusters)), 2):
            a, b = clusters[i], clusters[j]
            step = dim(a) * dim(b)
            for g in open_of(a) | open_of(b):
                step *= spec.edges[g][2]
            merged = tuple(
                a | b if k == i else c
                for k, c in enumerate(clusters)
                if k != j
            )
            recurse(merged, cost + step)

    recurse(tuple(frozenset({i}) for i in range(spec.num_nodes)), 0.0)
    return best[0]


class TestSerialisation:
    def test_dict_round_trip(self):
        plan = dp_plan(GREEDY_TRAP)
        again = ContractionPlan.from_dict(plan.to_dict())
        assert again == plan

    def test_json_round_trip(self):
        plan = greedy_plan(GREEDY_TRAP)
        again = ContractionPlan.from_json(plan.to_json())
        assert again.steps == plan.steps
        assert again.method == plan.method
        assert again.cost == plan.cost

    def test_validate_rejects_wrong_node_count(self):
        plan = ContractionPlan(num_nodes=3, steps=((0, 1), (0, 2)))
        with pytest.raises(ReconstructionError):
            plan.validate(4)

    def test_validate_rejects_short_plans(self):
        with pytest.raises(ReconstructionError):
            ContractionPlan(num_nodes=4, steps=((0, 1),)).validate()

    def test_validate_rejects_self_merges(self):
        plan = ContractionPlan(
            num_nodes=3, steps=((0, 1), (1, 0))
        )
        with pytest.raises(ReconstructionError):
            plan.validate()

    def test_from_dict_validates(self):
        with pytest.raises(ReconstructionError):
            ContractionPlan.from_dict(
                {"num_nodes": 3, "steps": [[0, 1]]}
            )


class TestPlanners:
    def test_greedy_trap_dp_wins(self):
        """The committed worst case: greedy's plan is strictly more
        expensive, DP's equals the exhaustive optimum."""
        g = greedy_plan(GREEDY_TRAP)
        d = dp_plan(GREEDY_TRAP)
        assert g.cost > d.cost
        assert d.cost == brute_force_optimum(GREEDY_TRAP)
        # reported costs are real: re-pricing the steps reproduces them
        assert plan_cost(GREEDY_TRAP, g) == g.cost
        assert plan_cost(GREEDY_TRAP, d) == d.cost

    def test_dp_never_worse_than_greedy_or_fixed(self):
        for edges, cuts in [
            ([(0, 1), (0, 2), (1, 3), (2, 3)], 1),
            ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 2),
            ([(0, 1), (1, 2), (2, 3)], 2),
        ]:
            qc, specs = dag_cut_circuit(
                edges, cuts, fresh_per_fragment=1, depth=2, seed=5
            )
            spec = network_spec_for_tree(partition_tree(qc, specs))
            d = dp_plan(spec)
            assert d.cost <= greedy_plan(spec).cost
            assert d.cost <= fixed_plan(spec).cost

    def test_auto_picks_dp_when_small(self):
        assert search_plan(GREEDY_TRAP, "auto").method == "dp"
        big = NetworkSpec(
            num_nodes=DP_MAX_NODES + 1,
            edges=tuple(
                (i, i + 1, 4) for i in range(DP_MAX_NODES)
            ),
            out_dims=(2,) * (DP_MAX_NODES + 1),
        )
        assert search_plan(big, "auto").method == "greedy"

    def test_unknown_method_rejected(self):
        with pytest.raises(ReconstructionError):
            search_plan(GREEDY_TRAP, "simulated-annealing")

    def test_fixed_plan_is_leaves_to_root_on_trees(self):
        qc, specs = tree_cut_circuit(
            [0, 0, 1], 1, fresh_per_fragment=2, depth=2, seed=7
        )
        tree = partition_tree(qc, specs)
        plan = fixed_plan(network_spec_for_tree(tree))
        # every step folds a child into its parent, children first
        merged = set()
        for a, b in plan.steps:
            assert tree.group_src[
                tree.fragments[b].in_groups[0]
            ] == a or a in merged
            merged.add(b)

    def test_reduced_bases_shrink_edges(self):
        qc, specs = dag_cut_circuit(
            [(0, 1), (0, 2), (1, 3), (2, 3)], 1,
            fresh_per_fragment=1, depth=2, seed=9,
        )
        tree = partition_tree(qc, specs)
        full = network_spec_for_tree(tree)
        bases = [
            reduced_bases(k, {0: ("X", "Y")})
            if g == 2
            else [("I", "X", "Y", "Z")] * k
            for g, k in enumerate(tree.group_sizes)
        ]
        reduced = network_spec_for_tree(tree, bases)
        assert reduced.edges[2][2] == 2 and full.edges[2][2] == 4
        assert dp_plan(reduced).cost < dp_plan(full).cost


class TestCostTracksTime:
    def test_cost_ordering_matches_plan_flops(self):
        """On the bench DAG (branchy 5-fragment, 2 cuts per group) the
        fixed leaves-to-root order is ≥ 5× more FLOPs than the searched
        plan, re-pricing the plans agrees, and both contract alike."""
        from repro.cutting.execution import exact_tree_data
        from repro.cutting.reconstruction import (
            _contract_network,
            build_tree_fragment_tensor,
        )

        qc, specs = dag_cut_circuit(
            [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)], 2,
            fresh_per_fragment=1, depth=2, seed=11,
        )
        tree = partition_tree(qc, specs)
        data = exact_tree_data(tree)
        tensors = [
            build_tree_fragment_tensor(data, i)[0]
            for i in range(tree.num_fragments)
        ]
        spec = network_spec_for_tree(tree)
        fixed, searched = fixed_plan(spec), dp_plan(spec)
        assert fixed.cost >= 5 * searched.cost

        def contract(plan):
            return _contract_network(tensors, tree, plan, None)

        np.testing.assert_allclose(contract(fixed), contract(searched), atol=1e-9)
        assert plan_cost(spec, fixed) == fixed.cost
        assert plan_cost(spec, searched) == searched.cost
