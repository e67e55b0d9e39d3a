"""Automatic cut-point search: engines, objectives, pipeline auto mode.

The quality pins are the contract of :mod:`repro.cutting.search`:

* the exhaustive engine is the reference — on small circuits the greedy
  heuristic must match its ``"width"`` optimum and stay within 1.5× of
  its ``"cost"`` optimum;
* every returned spec set replays through ``partition_tree`` within the
  width budget (property-tested over random circuit families);
* the spec-free pipeline entry points succeed end-to-end on the harness
  chain/tree circuit families.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.backends import IdealBackend
from repro.circuits import ghz_circuit, random_circuit
from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.core.pipeline import (
    cut_and_run,
    cut_and_run_chain,
    cut_and_run_tree,
)
from repro.cutting import CutSpec, find_cut_specs, find_cuts, partition_tree
from repro.cutting.chain import partition_chain
import repro.cutting.search as search_mod
from repro.cutting.search import (
    CutSearchResult,
    _biased_topological_order,
    _prefix_splits,
    _score_split,
    _SearchContext,
    _split_piece,
    search_cut_specs,
)
from repro.cutting.tree import _Piece
from repro.exceptions import CutError
from repro.harness.scaling import (
    chain_cut_circuit,
    ghz_star_circuit,
    golden_chain_circuit,
    golden_tree_circuit,
    tree_cut_circuit,
)
from repro.metrics import total_variation
from repro.sim import simulate_statevector

from helpers import two_block_circuit
from oracles import downstream_closure_reference, prefix_splits_reference


def _search_family(seed: int) -> Circuit:
    """Small two-block circuits with a known good cut structure."""
    return two_block_circuit(5, [0, 1, 2], [2, 3, 4], depth=2, seed=seed)[0]


class TestSearchBasics:
    def test_pair_result_fields(self):
        qc = Circuit(3).h(0).cx(0, 1).cx(1, 2)
        res = search_cut_specs(qc, 2)
        assert isinstance(res, CutSearchResult)
        assert res.objective == "width"
        assert res.engine in ("exhaustive", "greedy")
        assert res.evaluations >= 1
        assert res.report["budget"] == 2
        assert res.specs == find_cut_specs(qc, 2)
        # the specs replay: same tree shape out of partition_tree
        tree = partition_tree(qc, res.specs)
        assert tree.describe() == res.tree.describe()

    def test_width_budget_respected(self):
        res = search_cut_specs(ghz_circuit(6), 3)
        assert all(f.num_qubits <= 3 for f in res.tree.fragments)
        assert res.tree.num_fragments >= 2

    def test_num_fragments_pinned(self):
        res = search_cut_specs(ghz_circuit(6), 5, num_fragments=3)
        assert res.tree.num_fragments == 3

    def test_chain_topology(self):
        qc, _ = chain_cut_circuit(
            3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
        )
        res = search_cut_specs(qc, 3, topology="chain")
        assert res.tree.is_chain
        # the chain partitioner accepts the specs directly
        chain = partition_chain(qc, res.specs)
        assert chain.num_fragments == res.tree.num_fragments

    def test_no_fit_raises(self):
        with pytest.raises(CutError, match="no cut set"):
            find_cut_specs(ghz_circuit(4), 1)

    def test_instruction_wider_than_budget_raises_up_front(self, monkeypatch):
        # no fragment of 1 qubit can hold a cx: neither engine may run
        entered = []
        monkeypatch.setattr(
            search_mod, "_greedy", lambda ctx: entered.append("greedy")
        )
        monkeypatch.setattr(
            search_mod, "_exhaustive", lambda ctx: entered.append("exhaustive")
        )
        qc, _ = chain_cut_circuit(3, fresh_per_fragment=2, seed=0)
        with pytest.raises(CutError, match=r"instruction \d+ \(cx\) acts on 2"):
            find_cut_specs(qc, 1)
        assert entered == []

    def test_failed_greedy_skips_rescue_on_wide_shapes(self, monkeypatch):
        # budget 2 needs more than 3 fragments: the exhaustive rescue's
        # state space is out of reach, so the failed greedy pass is final
        calls = {"greedy": 0, "exhaustive": 0}
        greedy = search_mod._greedy

        def counting_greedy(ctx):
            calls["greedy"] += 1
            return greedy(ctx)

        def counting_exhaustive(ctx):
            calls["exhaustive"] += 1
            return None

        monkeypatch.setattr(search_mod, "_greedy", counting_greedy)
        monkeypatch.setattr(search_mod, "_exhaustive", counting_exhaustive)
        qc, _ = chain_cut_circuit(3, fresh_per_fragment=2, seed=0)
        with pytest.raises(CutError, match="no cut set"):
            find_cut_specs(qc, 2)
        assert calls == {"greedy": 1, "exhaustive": 0}

    def test_max_cuts_too_small_for_fragments(self):
        with pytest.raises(CutError, match="max_cuts"):
            find_cut_specs(ghz_circuit(6), 3, num_fragments=4, max_cuts=2)

    def test_knob_validation(self):
        qc = ghz_circuit(4)
        with pytest.raises(CutError, match="objective"):
            find_cut_specs(qc, 3, objective="speed")
        with pytest.raises(CutError, match="engine"):
            find_cut_specs(qc, 3, engine="quantum")
        with pytest.raises(CutError, match="topology"):
            find_cut_specs(qc, 3, topology="forest")
        with pytest.raises(CutError, match="at least two"):
            find_cut_specs(qc, 3, num_fragments=1)
        with pytest.raises(CutError, match="no instructions"):
            find_cut_specs(Circuit(2), 1)


class TestEngineAgreement:
    """Greedy vs the exhaustive reference — the search-quality goldens."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_width_matches_exhaustive(self, seed):
        qc = _search_family(seed)
        ref = search_cut_specs(qc, 4, engine="exhaustive")
        heur = search_cut_specs(qc, 4, engine="greedy")
        assert heur.value == ref.value

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cost_within_1_5x_of_exhaustive(self, seed):
        qc = _search_family(seed)
        ref = search_cut_specs(qc, 4, objective="cost", engine="exhaustive")
        heur = search_cut_specs(qc, 4, objective="cost", engine="greedy")
        assert heur.value <= 1.5 * ref.value + 1e-9

    def test_exhaustive_is_optimal_on_enumerable_circuit(self):
        # budget 4 on the two-block family admits a single-cut bipartition;
        # the width objective must find exactly it (1 cut, width 4)
        qc = _search_family(0)
        ref = search_cut_specs(qc, 4, engine="exhaustive")
        assert ref.value[0] == 1

    def test_greedy_rescue_still_solves(self):
        # greedy prefix splits always solve GHZ; force the engine anyway
        res = search_cut_specs(ghz_circuit(8), 5, engine="greedy")
        assert all(f.num_qubits <= 5 for f in res.tree.fragments)


class TestCostObjective:
    def test_cost_value_is_positive_scalar(self):
        qc = _search_family(1)
        res = search_cut_specs(qc, 4, objective="cost")
        assert isinstance(res.value, float) and res.value > 0

    def test_golden_discount_never_hurts(self):
        qc, _, _ = golden_chain_circuit(3, planted_groups=(0, 1), seed=5)
        plain = search_cut_specs(qc, 4, objective="cost")
        discounted = search_cut_specs(
            qc, 4, objective="cost", golden_discount=True
        )
        assert discounted.value <= plain.value + 1e-9

    def test_cost_scales_with_shots(self):
        # stddev ∝ 1/sqrt(shots) while executions ∝ shots: doubling the
        # budget must change the value by exactly sqrt(2)
        qc = _search_family(2)
        lo = search_cut_specs(qc, 4, objective="cost", shots=1000)
        hi = search_cut_specs(qc, 4, objective="cost", shots=2000)
        assert hi.value == pytest.approx(lo.value * np.sqrt(2), rel=1e-6)


class TestSearchProperties:
    """Every returned spec set validates and partitions within budget."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_qubits=st.integers(min_value=3, max_value=6),
        depth=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_circuits_partition_within_budget(
        self, num_qubits, depth, seed
    ):
        qc = random_circuit(num_qubits, depth=depth, seed=seed)
        budget = max(2, num_qubits - 1)
        try:
            specs = find_cut_specs(qc, budget)
        except CutError:
            return  # "no cut fits" is a legitimate outcome
        for spec in specs:
            assert isinstance(spec, CutSpec)
            spec.validate(qc)
        tree = partition_tree(qc, specs)
        assert all(f.num_qubits <= budget for f in tree.fragments)
        assert tree.num_fragments == len(specs) + 1

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_fragments=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_harness_chains_solved_as_chains(self, num_fragments, seed):
        qc, _ = chain_cut_circuit(
            num_fragments,
            cuts_per_group=1,
            fresh_per_fragment=2,
            depth=1,
            seed=seed,
        )
        specs = find_cut_specs(qc, 3, topology="chain")
        chain = partition_chain(qc, specs)
        assert all(f.num_qubits <= 3 for f in chain.fragments)


class TestPipelineAutoMode:
    """`cut_and_run_tree(circuit, backend, cuts=None, max_fragment_qubits=B)`
    end-to-end on the harness circuit families (the acceptance pin)."""

    def test_tree_auto_on_chain_family(self):
        qc, _ = chain_cut_circuit(
            3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
        )
        res = cut_and_run_tree(
            qc, IdealBackend(), cuts=None, max_fragment_qubits=3,
            shots=4000, seed=1,
        )
        truth = simulate_statevector(qc).probabilities()
        assert all(f.num_qubits <= 3 for f in res.tree.fragments)
        assert total_variation(res.probabilities, truth) < 0.1

    def test_tree_auto_on_tree_family(self):
        qc, _ = tree_cut_circuit(
            [0, 0], cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=4
        )
        res = cut_and_run_tree(
            qc, IdealBackend(), cuts=None, max_fragment_qubits=4,
            shots=4000, seed=2,
        )
        truth = simulate_statevector(qc).probabilities()
        assert all(f.num_qubits <= 4 for f in res.tree.fragments)
        assert total_variation(res.probabilities, truth) < 0.1

    def test_tree_auto_on_ghz_star(self):
        qc, _ = ghz_star_circuit(children=2, fresh_per_child=2)
        res = cut_and_run_tree(
            qc, IdealBackend(), cuts=None, max_fragment_qubits=4,
            shots=4000, seed=3,
        )
        truth = simulate_statevector(qc).probabilities()
        assert total_variation(res.probabilities, truth) < 0.1

    def test_chain_auto(self):
        qc, _ = chain_cut_circuit(
            3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
        )
        res = cut_and_run_chain(
            qc, IdealBackend(), max_fragment_qubits=3, shots=4000, seed=4
        )
        assert res.tree.is_chain
        truth = simulate_statevector(qc).probabilities()
        assert total_variation(res.probabilities, truth) < 0.1

    def test_auto_with_analytic_golden(self):
        qc, _, _ = golden_chain_circuit(3, planted_groups=(0, 1), seed=5)
        res = cut_and_run_tree(
            qc, IdealBackend(), cuts=None, max_fragment_qubits=4,
            golden="analytic", shots=4000, seed=5,
        )
        truth = simulate_statevector(qc).probabilities()
        assert total_variation(res.probabilities, truth) < 0.1

    def test_bare_cutspec_accepted(self):
        qc = _search_family(0)
        spec = find_cuts(qc, 4)
        res = cut_and_run_tree(qc, IdealBackend(), spec, shots=1000, seed=1)
        assert res.tree.num_fragments == 2

    def test_specs_and_cuts_conflict(self):
        qc = _search_family(0)
        spec = find_cuts(qc, 4)
        with pytest.raises(CutError, match="alias"):
            cut_and_run_tree(
                qc, IdealBackend(), spec, cuts=spec, shots=100, seed=1
            )

    def test_num_fragments_forwarded(self):
        qc, _ = chain_cut_circuit(
            3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
        )
        res = cut_and_run_tree(
            qc, IdealBackend(), cuts=None, max_fragment_qubits=5,
            num_fragments=3, shots=1000, seed=6,
        )
        assert res.tree.num_fragments == 3

    def test_zero_budget_reaches_search_validation(self):
        # 0 is a budget, not "use the default": it must fail validation
        qc, _ = chain_cut_circuit(
            3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
        )
        with pytest.raises(CutError, match="at least 1"):
            cut_and_run_tree(
                qc, IdealBackend(), cuts=None, max_fragment_qubits=0,
                shots=100, seed=1,
            )
        with pytest.raises(CutError, match="at least 1"):
            cut_and_run(
                qc, IdealBackend(), max_fragment_qubits=0, shots=100, seed=1
            )


class TestDagSearchHelpers:
    def test_wire_cut_positions_excludes_last(self):
        qc = Circuit(2).h(0).cx(0, 1).h(1)
        positions = CircuitDag(qc).wire_cut_positions()
        # wire 0: gates [0, 1] -> only 0; wire 1: gates [1, 2] -> only 1
        assert positions == [(0, 0), (1, 1)]

    def test_interaction_graph_weights(self):
        qc = Circuit(3).cx(0, 1).cx(0, 1).cx(1, 2)
        graph = CircuitDag(qc).qubit_interaction_graph()
        assert graph[0][1]["weight"] == 2
        assert graph[1][2]["weight"] == 1
        assert not graph.has_edge(0, 2)

    def test_balanced_bisection_partitions_qubits(self):
        qc = ghz_circuit(6)
        half_a, half_b = CircuitDag(qc).balanced_qubit_bisection(seed=0)
        assert half_a | half_b == set(range(6))
        assert not half_a & half_b
        assert abs(len(half_a) - len(half_b)) <= 1


#: cut-search circuits of the golden table
_GOLDEN_CIRCUITS = {
    "chain3": lambda: chain_cut_circuit(
        3, cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=3
    )[0],
    "chain4": lambda: chain_cut_circuit(
        4, fresh_per_fragment=2, depth=2, seed=1
    )[0],
    "chain4-auto": lambda: chain_cut_circuit(4, fresh_per_fragment=2, seed=7)[0],
    "tree": lambda: tree_cut_circuit(
        [0, 0], cuts_per_group=1, fresh_per_fragment=2, depth=1, seed=4
    )[0],
    "golden-tree": lambda: golden_tree_circuit(
        [0, 1], planted_groups=(0,), depth=1, seed=5
    )[0],
}

#: search options of the golden table
_GOLDEN_OPTIONS = {
    "width": {},
    "cost": {"objective": "cost"},
    "cost-golden": {"objective": "cost", "golden_discount": True},
    "chain": {"topology": "chain"},
    "dag": {"topology": "dag"},
    "nf3": {"num_fragments": 3},
}

#: (circuit, budget, options, engine asked) -> (specs as (wire, gate)
#: lists, value, evaluations, engine used)
_GOLDENS = [
    ("chain3", 3, "width", "greedy", [[(3, 4)], [(1, 1)]], (2, 3, 3), 5, "greedy"),
    ("chain3", 3, "width", "exhaustive", [[(1, 1)], [(3, 3)]], (2, 3, 3), 7, "exhaustive"),
    ("chain3", 4, "cost", "greedy", [[(3, 4)]], 127.27304970999054, 8, "greedy"),
    ("chain3", 3, "chain", "greedy", [[(1, 1)], [(3, 4)]], (2, 3, 3), 3, "greedy"),
    ("chain3", 4, "nf3", "exhaustive", [[(1, 1)], [(3, 3)]], (2, 3, 3), 22, "exhaustive"),
    ("chain4", 3, "width", "greedy", [[(3, 10)], [(5, 15)], [(1, 1)]], (3, 3, 4), 12, "greedy"),
    ("chain4", 4, "width", "greedy", [[(3, 10)], [(5, 15)]], (2, 4, 3), 10, "greedy"),
    ("chain4", 3, "cost", "greedy", [[(1, 4)], [(3, 10)], [(5, 18)]], 2256.1303555249756, 12, "greedy"),
    ("chain4", 3, "cost-golden", "greedy", [[(3, 9)], [(5, 15)], [(1, 0)]], 286.0931316480408, 15, "greedy"),
    ("chain4", 3, "chain", "greedy", [[(2, 5)], [(3, 10)], [(5, 15)]], (3, 3, 4), 5, "greedy"),
    ("chain4", 4, "dag", "greedy", [[(3, 10)], [(5, 15)]], (2, 4, 3), 10, "greedy"),
    ("chain4-auto", 4, "width", "auto", [[(3, 8)], [(5, 15)]], (2, 4, 3), 7, "greedy"),
    ("tree", 3, "width", "greedy", [[(1, 2)], [(0, 1)]], (2, 3, 3), 9, "greedy"),
    ("tree", 3, "width", "exhaustive", [[(0, 0)], [(1, 0)]], (2, 3, 3), 20, "exhaustive"),
    ("tree", 4, "cost", "exhaustive", [[(0, 1)]], 85.36819315412482, 68, "exhaustive"),
    ("tree", 3, "dag", "greedy", [[(1, 2)], [(0, 1)]], (2, 3, 3), 9, "greedy"),
    ("tree", 4, "nf3", "greedy", [[(1, 2)], [(0, 1)]], (2, 3, 3), 10, "greedy"),
    ("tree", 4, "chain", "greedy", [[(1, 2)]], (1, 4, 2), 5, "greedy"),
    ("golden-tree", 3, "cost", "greedy", [[(1, 4)], [(0, 0)]], 1165.349848315561, 6, "greedy"),
    ("golden-tree", 3, "cost", "exhaustive", [[(1, 1)], [(1, 2)]], 1063.2263896200275, 28, "exhaustive"),
    ("golden-tree", 3, "cost-golden", "greedy", [[(1, 4)], [(0, 0)]], 345.2888439453514, 6, "greedy"),
    ("golden-tree", 4, "cost-golden", "exhaustive", [[(1, 2)]], 118.13626551333638, 75, "exhaustive"),
    ("golden-tree", 3, "dag", "exhaustive", [[(0, 0)], [(1, 2)]], (2, 3, 3), 58, "exhaustive"),
    ("golden-tree", 3, "nf3", "greedy", [[(0, 0)], [(1, 2)]], (2, 3, 3), 5, "greedy"),
]


class TestSearchGoldens:
    """Seeded search outputs pinned exactly: specs, objective value,
    partitions scored and engine.  Greedy == exhaustive agreement alone
    would not notice a reordered candidate list; these rows would."""

    @pytest.mark.parametrize(
        "circuit, budget, options, engine, specs, value, evaluations, used",
        _GOLDENS,
        ids=[f"{c}-b{b}-{o}-{e}" for c, b, o, e, *_ in _GOLDENS],
    )
    def test_search_output_pinned(
        self, circuit, budget, options, engine, specs, value, evaluations, used
    ):
        res = search_cut_specs(
            _GOLDEN_CIRCUITS[circuit](),
            budget,
            engine=engine,
            seed=0,
            **_GOLDEN_OPTIONS[options],
        )
        assert [
            [(c.wire, c.gate_index) for c in s.cuts] for s in res.specs
        ] == specs
        if isinstance(value, tuple):
            assert res.value == value
        else:
            assert res.value == pytest.approx(value, rel=1e-9)
        assert res.evaluations == evaluations
        assert res.engine == used


#: circuit families of the differential pin, one circuit per seed
_DIFF_FAMILIES = {
    "random": lambda s: random_circuit(4 + s % 4, depth=2 + s % 3, seed=s),
    "chain": lambda s: chain_cut_circuit(
        3 + s % 2, fresh_per_fragment=2, seed=s
    )[0],
    "tree": lambda s: tree_cut_circuit(
        [0, s % 2], fresh_per_fragment=2, seed=s
    )[0],
    "golden-tree": lambda s: golden_tree_circuit(
        [0, 1], planted_groups=(s % 2,), depth=1, seed=s
    )[0],
}

#: (objective, topology) of every differential search
_DIFF_OPTIONS = [
    ("width", "tree"),
    ("width", "chain"),
    ("width", "dag"),
    ("cost", "tree"),
]

#: family -> digest of its greedy search outcomes over seeds 0..4
_DIFF_DIGESTS = {
    "random": "6a8f8465744cf640",
    "chain": "c5faf5752ff2e69f",
    "tree": "3e9e64d11fd48d6d",
    "golden-tree": "91b5ad984f2a161e",
}


def _family_digest(family: str) -> str:
    """Digest of every greedy search outcome of one family: specs, value
    (cost to 6 significant digits), evaluations and engine, or the
    error message."""
    lines = []
    for seed in range(5):
        qc = _DIFF_FAMILIES[family](seed)
        for objective, topology in _DIFF_OPTIONS:
            try:
                res = search_cut_specs(
                    qc,
                    (qc.num_qubits + 1) // 2 + 1,
                    objective=objective,
                    topology=topology,
                    engine="greedy",
                    seed=seed,
                )
            except CutError as exc:
                lines.append(f"CutError: {exc}")
                continue
            value = (
                res.value if isinstance(res.value, tuple) else f"{res.value:.6g}"
            )
            lines.append(
                repr((_spec_key(res.specs), value, res.evaluations, res.engine))
            )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class TestSearchDifferential:
    """Greedy outcomes over random and harness circuit families, pinned
    as one digest per family: any change to candidate order, scoring,
    completion or climb shows up here even where the goldens agree."""

    @pytest.mark.parametrize("family", sorted(_DIFF_DIGESTS))
    def test_family_outcomes_pinned(self, family):
        assert _family_digest(family) == _DIFF_DIGESTS[family]


def _with_idle_wire(qc: Circuit) -> Circuit:
    """``qc`` widened by one wire no instruction touches."""
    return Circuit(qc.num_qubits + 1, qc.instructions, name=qc.name)


def _prefix_points(dag: CircuitDag, order, k: int):
    """Cut points of the first ``k`` instructions of a topological order."""
    prefix = set(order[:k])
    points = []
    for wire in range(dag.circuit.num_qubits):
        seg = dag.wire_segments(wire)
        inside = [i for i in seg if i in prefix]
        if inside and len(inside) < len(seg):
            points.append((wire, inside[-1]))
    return points


def _root_piece(qc: Circuit) -> _Piece:
    return _Piece(
        circuit=qc,
        wire_orig=list(range(qc.num_qubits)),
        inst_orig=list(range(len(qc))),
        entering={},
        exiting={},
    )


def _grown_pieces(qc: Circuit, data) -> "list[_Piece]":
    """The root piece of ``qc`` plus pieces carrying entering and exiting
    groups, grown by splitting random pieces at random valid prefixes."""
    pieces = [_root_piece(qc)]
    for group in range(2):
        piece = data.draw(st.sampled_from(pieces))
        order = list(range(len(piece.circuit)))
        splits = []
        for k in range(1, len(order)):
            points = _prefix_points(CircuitDag(piece.circuit), order, k)
            if not points:
                continue
            try:
                splits.append(_split_piece(piece, points, group)[1])
            except CutError:
                continue
        if splits:
            pieces.extend(data.draw(st.sampled_from(splits)))
    return pieces


class TestFrontierProperties:
    """The bitmask frontier primitive against networkx, and the greedy
    scorer against the fragments it stands in for."""

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_qubits=st.integers(min_value=2, max_value=6),
        depth=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        idle=st.booleans(),
        data=st.data(),
    )
    def test_closure_matches_networkx(
        self, num_qubits, depth, seed, idle, data
    ):
        qc = random_circuit(num_qubits, depth=depth, seed=seed)
        if idle:
            qc = _with_idle_wire(qc)
        dag = CircuitDag(qc)
        positions = dag.wire_cut_positions()
        if not positions:
            return
        chosen = data.draw(
            st.lists(
                st.sampled_from(positions),
                min_size=1,
                max_size=3,
                unique_by=lambda p: p[0],
            )
        )
        got = CircuitDag.mask_nodes(dag.downstream_closure(chosen))
        assert got == downstream_closure_reference(qc, chosen)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_qubits=st.integers(min_value=3, max_value=6),
        depth=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        idle=st.booleans(),
        data=st.data(),
    )
    def test_scorer_matches_built_split(
        self, num_qubits, depth, seed, idle, data
    ):
        qc = random_circuit(num_qubits, depth=depth, seed=seed)
        if idle:
            qc = _with_idle_wire(qc)
        pieces = _grown_pieces(qc, data)
        group = 2
        for piece in pieces:
            dag = CircuitDag(piece.circuit)
            n = len(piece.circuit)
            orders = [list(range(n))]
            prefer = data.draw(
                st.sets(st.integers(0, piece.circuit.num_qubits - 1))
            )
            orders.append(_biased_topological_order(piece.circuit, dag, prefer))
            for order in orders:
                for k in range(1, n):
                    points = _prefix_points(dag, order, k)
                    if not points:
                        continue
                    scored = _score_split(piece, dag, points, group)
                    try:
                        _, halves = _split_piece(piece, points, group)
                    except CutError:
                        assert scored is None
                        continue
                    assert scored is not None
                    up_mask, widths = scored
                    assert {
                        piece.inst_orig[i]
                        for i in CircuitDag.mask_nodes(up_mask)
                    } == set(halves[0].inst_orig)
                    assert widths == tuple(
                        h.circuit.num_qubits for h in halves
                    )


class TestLazyPrefixRanking:
    """The greedy engine's lazily bucketed candidate generator against the
    eager rank-everything-then-sort oracle, and the engine's reuse of the
    worklists its completions already hold."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_qubits=st.integers(min_value=3, max_value=7),
        depth=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        max_cuts=st.integers(min_value=1, max_value=5),
        idle=st.booleans(),
        data=st.data(),
    )
    def test_drained_generator_matches_eager_ranking(
        self, num_qubits, depth, seed, max_cuts, idle, data
    ):
        qc = random_circuit(num_qubits, depth=depth, seed=seed)
        if idle:
            qc = _with_idle_wire(qc)
        ctx = _SearchContext(
            circuit=qc,
            budget=num_qubits,
            num_fragments=None,
            max_cuts=max_cuts,
            objective="width",
            topology="tree",
            golden_discount=False,
            shots=1000,
            seed=seed,
        )
        for piece in _grown_pieces(qc, data):
            got = list(_prefix_splits(ctx, piece, 2))
            assert got == prefix_splits_reference(ctx, piece, 2)

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_qubits=st.integers(min_value=3, max_value=6),
        depth=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        idle=st.booleans(),
        data=st.data(),
    )
    def test_cut_points_fixed_by_upstream_half(
        self, num_qubits, depth, seed, idle, data
    ):
        # two distinct point lists never share a valid upstream half, so
        # the generator needs no seen-split filter beyond its point dedupe
        qc = random_circuit(num_qubits, depth=depth, seed=seed)
        if idle:
            qc = _with_idle_wire(qc)
        for piece in _grown_pieces(qc, data):
            dag = CircuitDag(piece.circuit)
            order = list(range(len(piece.circuit)))
            for k in range(1, len(order)):
                points = _prefix_points(dag, order, k)
                if not points:
                    continue
                scored = _score_split(piece, dag, points, 2)
                if scored is None:
                    continue
                up = scored[0]
                from_mask = [
                    (wire, (mask & up).bit_length() - 1)
                    for wire, mask in enumerate(dag.wire_masks)
                    if mask & up and mask & ~up
                ]
                assert from_mask == points

    @pytest.mark.parametrize("topology", ["tree", "chain", "dag"])
    def test_completions_score_without_replay(self, monkeypatch, topology):
        completions: list = []
        replayed: list = []
        complete = search_mod._complete_greedily
        replay = search_mod.partition_tree

        def recording_complete(ctx, pieces, specs, used):
            done = complete(ctx, pieces, specs, used)
            if done is not None:
                completions.append(_spec_key(done[0]))
            return done

        def recording_replay(circuit, specs):
            replayed.append(_spec_key(specs))
            return replay(circuit, specs)

        monkeypatch.setattr(search_mod, "_complete_greedily", recording_complete)
        monkeypatch.setattr(search_mod, "partition_tree", recording_replay)
        qc = chain_cut_circuit(4, fresh_per_fragment=2, seed=7)[0]
        res = search_cut_specs(qc, 4, engine="greedy", topology=topology)
        assert completions
        assert not set(completions) & set(replayed)
        # the winner's tree is the one partition_tree builds from its specs
        assert res.tree.describe() == replay(qc, res.specs).describe()


def _spec_key(specs) -> tuple:
    return tuple(tuple((c.wire, c.gate_index) for c in s.cuts) for s in specs)
