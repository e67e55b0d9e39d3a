"""Tests for fragment-tree shot-budget planning (production and pilot)."""

import pytest

from repro.backends import IdealBackend
from repro.core import golden_ansatz
from repro.core.neglect import tree_reduced_variants
from repro.cutting import allocate_tree_shots, run_tree_fragments
from repro.cutting.shots import allocate_tree_pilot_shots
from repro.exceptions import CutError

from tests.helpers import pair_tree


@pytest.fixture(scope="module")
def golden_tree():
    spec = golden_ansatz(5, depth=3, seed=17)
    return pair_tree(spec.circuit, spec.cut_spec)


class TestAllocateTreeShots:
    def test_budget_conserved(self):
        per, report = allocate_tree_shots([3, 6], total_shots=9000)
        assert per == 1000
        assert report["total_executions"] == 9000
        # a remainder is never overspent
        per, report = allocate_tree_shots([3, 6], total_shots=9008)
        assert per == 1000 and report["total_executions"] <= 9008

    def test_every_variant_funded(self):
        per, report = allocate_tree_shots([3, 18, 6], shots_per_variant=250)
        assert per == 250
        assert report["variants_per_fragment"] == [3, 18, 6]
        assert report["num_variants"] == 27
        assert report["total_executions"] == 250 * 27

    def test_budget_floor_enforced(self):
        with pytest.raises(CutError):
            allocate_tree_shots([3, 6], total_shots=8)
        with pytest.raises(CutError):
            allocate_tree_shots([3, 6], shots_per_variant=0)

    def test_needs_two_fragments(self):
        with pytest.raises(CutError):
            allocate_tree_shots([9], shots_per_variant=100)

    def test_every_fragment_needs_a_variant(self):
        with pytest.raises(CutError):
            allocate_tree_shots([3, 0], shots_per_variant=100)

    def test_plan_respects_reduced_bases(self, golden_tree):
        """A golden-reduced protocol is budgeted over its own variants only:
        the paper's 9 → 6 executions for one Y-golden cut."""
        _, variants = tree_reduced_variants(golden_tree, [{0: "Y"}])
        counts = [len(v) for v in variants]
        assert counts == [2, 4]
        _, full = allocate_tree_shots([3, 6], shots_per_variant=1000)
        _, reduced = allocate_tree_shots(counts, shots_per_variant=1000)
        assert full["total_executions"] == 9000
        assert reduced["total_executions"] == 6000

    def test_matches_executed_budget(self, golden_tree):
        per, report = allocate_tree_shots([3, 6], total_shots=900)
        data = run_tree_fragments(golden_tree, IdealBackend(), shots=per, seed=3)
        assert data.total_shots == report["total_executions"]
        assert [len(r) for r in data.records] == report["variants_per_fragment"]


class TestAllocateTreePilotShots:
    def test_detect_mode_bills_the_pilot(self):
        """``cut_and_run(golden="detect")`` charges exactly the planned
        pilot: the measuring fragment's settings at the default budget."""
        from repro.core import cut_and_run

        spec = golden_ansatz(5, depth=3, seed=17)
        run = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=800,
            golden="detect", seed=5,
        )
        _, report = allocate_tree_pilot_shots([3, 0], shots_per_variant=800)
        assert run.tree_run.pilot_executions == report["pilot_executions"]
