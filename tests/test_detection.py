"""Tests for the empirical (finite-shot) golden-cut detector."""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.core import detect_tree_golden_bases, golden_ansatz
from repro.core.golden import tree_definition1_deviation
from repro.exceptions import DetectionError

from tests.helpers import pair_tree, root_pilot_data, two_block_circuit


def _measured_data(tree, shots, seed=0):
    return root_pilot_data(tree, shots=shots, backend=IdealBackend(), seed=seed)


def _detect_root(data, **kwargs):
    return detect_tree_golden_bases(data, 0, **kwargs)


def _z_deviation(tree):
    return tree_definition1_deviation(root_pilot_data(tree), 0, 0, "Z")


class TestDetector:
    def test_detects_true_golden(self):
        spec = golden_ansatz(5, seed=31)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        results = _detect_root(_measured_data(tree, 20_000), alpha=1e-3)
        verdict = {r.basis: r.is_golden for r in results}
        assert verdict["Y"] is True

    def test_rejects_informative_bases(self):
        """On a generic circuit with a Z-informative cut, Z must be kept."""
        for seed in range(6):
            qc, spec = two_block_circuit(3, [0, 1], [1, 2], seed=300 + seed)
            tree = pair_tree(qc, spec)
            dev_z = _z_deviation(tree)
            if dev_z < 0.05:
                continue
            results = _detect_root(_measured_data(tree, 20_000), alpha=1e-3)
            verdict = {r.basis: r.is_golden for r in results}
            assert verdict["Z"] is False
            return
        pytest.fail("no Z-informative circuit found")

    def test_more_shots_sharper_zscores(self):
        """For a non-golden basis, z grows ~ sqrt(shots)."""
        for seed in range(6):
            qc, spec = two_block_circuit(3, [0, 1], [1, 2], seed=400 + seed)
            tree = pair_tree(qc, spec)
            if _z_deviation(tree) < 0.05:
                continue
            z_small = max(
                r.max_z
                for r in _detect_root(_measured_data(tree, 500, seed=1))
                if r.basis == "Z"
            )
            z_big = max(
                r.max_z
                for r in _detect_root(_measured_data(tree, 50_000, seed=1))
                if r.basis == "Z"
            )
            assert z_big > z_small
            return
        pytest.fail("no suitable circuit found")

    def test_false_rejection_rate_controlled(self):
        """A truly golden basis should essentially never be rejected."""
        spec = golden_ansatz(5, seed=77)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        rejections = 0
        for trial in range(10):
            results = _detect_root(
                _measured_data(tree, 5_000, seed=trial), alpha=1e-3
            )
            y = next(r for r in results if r.basis == "Y")
            rejections += 0 if y.is_golden else 1
        assert rejections == 0

    def test_p_value_range(self):
        spec = golden_ansatz(5, seed=3)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        for r in _detect_root(_measured_data(tree, 2_000)):
            assert 0.0 <= r.p_value <= 1.0

    def test_requires_finite_shot_data(self):
        spec = golden_ansatz(5, seed=3)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        with pytest.raises(DetectionError):
            _detect_root(root_pilot_data(tree))

    def test_cut_selection(self):
        qc, spec = two_block_circuit(
            5, [0, 1, 2], [1, 2, 3, 4], seed=5, real_upstream=True
        )
        tree = pair_tree(qc, spec)
        results = _detect_root(_measured_data(tree, 5_000), cuts=[1])
        assert all(r.cut == 1 for r in results)
        assert len(results) == 3

    def test_multi_cut_detects_both(self):
        qc, spec = two_block_circuit(
            5, [0, 1, 2], [1, 2, 3, 4], seed=6, real_upstream=True
        )
        tree = pair_tree(qc, spec)
        results = _detect_root(_measured_data(tree, 30_000), alpha=1e-3)
        y_verdicts = [r.is_golden for r in results if r.basis == "Y"]
        assert y_verdicts == [True, True]
