"""Tests for fragment-record persistence, reconstructed counts and exact
observable expectations."""

import json

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.circuits import Circuit, random_circuit
from repro.cutting import (
    TreeCheckpoint,
    TreeFragmentData,
    exact_tree_data,
    reconstruct_counts,
    reconstruct_tree_distribution,
    run_tree_fragments,
    tree_run_signature,
    tree_variant_tuples,
)
from repro.exceptions import ReconstructionError, SimulationError
from repro.linalg.paulis import PauliString
from repro.sim import simulate_statevector
from repro.sim.expectation import expectation_from_probs, expectation_of_observable

from tests.helpers import pair_tree, root_pilot_data


def _reload(tree, shots, path):
    """Every fragment's records read back from a checkpoint directory."""
    ck = TreeCheckpoint(path, tree, shots)
    records = []
    for i in range(tree.num_fragments):
        loaded, dead = ck.load_fragment(i, tree_variant_tuples(tree, i))
        assert dead == []
        records.append(loaded)
    return TreeFragmentData(tree=tree, records=records, shots_per_variant=shots)


class TestFragmentArchive:
    """A single cut's records persisted through :class:`TreeCheckpoint`."""

    def test_roundtrip_preserves_reconstruction(self, simple_cut_pair, tmp_path):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        data = run_tree_fragments(
            tree, IdealBackend(), shots=2000, seed=5,
            checkpoint=TreeCheckpoint(tmp_path / "run", tree, 2000),
        )
        loaded = _reload(tree, 2000, tmp_path / "run")
        np.testing.assert_array_equal(
            reconstruct_tree_distribution(loaded),
            reconstruct_tree_distribution(data),
        )

    def test_roundtrip_metadata(self, simple_cut_pair, tmp_path):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        ck = TreeCheckpoint(tmp_path / "x", tree, 500)
        data = run_tree_fragments(
            tree, IdealBackend(), shots=500, seed=1, checkpoint=ck
        )
        manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
        assert manifest["shots"] == 500
        assert manifest["num_fragments"] == 2
        assert manifest["signature"] == tree_run_signature(tree, 500)
        assert ck.completed_fragments() == [0, 1]
        loaded = _reload(tree, 500, tmp_path / "x")
        for i in range(2):
            assert loaded.fragment_variants(i) == data.fragment_variants(i)

    def test_loaded_circuits_match(self, simple_cut_pair, tmp_path):
        """The archive is pinned to the fragment circuits: a re-partition
        of the same circuit reopens it, a different circuit is refused."""
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        run_tree_fragments(
            tree, IdealBackend(), shots=300, seed=2,
            checkpoint=TreeCheckpoint(tmp_path / "e", tree, 300),
        )
        reopened = TreeCheckpoint(tmp_path / "e", pair_tree(qc, spec), 300)
        assert reopened.completed_fragments() == [0, 1]
        other = Circuit(3, name="simple")
        other.h(0).cx(0, 1).ry(0.7, 1)
        other.cx(1, 2).rz(0.4, 2)
        with pytest.raises(ReconstructionError):
            TreeCheckpoint(tmp_path / "e", pair_tree(other, spec), 300)

    def test_golden_analysis_on_loaded_data(self, tmp_path):
        from repro.core import detect_tree_golden_bases, golden_ansatz

        spec = golden_ansatz(5, seed=13)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        pilot = root_pilot_data(tree, shots=10_000, backend=IdealBackend(), seed=2)
        ck = TreeCheckpoint(tmp_path / "g", tree, 10_000)
        ck.save_fragment(0, pilot.records[0])
        records, _ = TreeCheckpoint(tmp_path / "g", tree, 10_000).load_fragment(
            0, pilot.fragment_variants(0)
        )
        loaded = TreeFragmentData(
            tree=tree, records=[records, {}], shots_per_variant=10_000
        )
        verdicts = {
            r.basis: r.is_golden for r in detect_tree_golden_bases(loaded, 0)
        }
        assert verdicts["Y"] is True

    def test_reduced_plan_roundtrip(self, tmp_path):
        """A golden-reduced run archives only its own variants and
        reconstructs identically from them."""
        from repro.core import golden_ansatz
        from repro.core.neglect import tree_reduced_variants

        spec = golden_ansatz(5, depth=3, seed=17)
        tree = pair_tree(spec.circuit, spec.cut_spec)
        bases, variants = tree_reduced_variants(tree, [{0: "Y"}])
        data = run_tree_fragments(
            tree, IdealBackend(), shots=400, variants=variants, seed=8,
            checkpoint=TreeCheckpoint(tmp_path / "r", tree, 400),
        )
        ck = TreeCheckpoint(tmp_path / "r", tree, 400)
        records = [ck.load_fragment(i, variants[i])[0] for i in range(2)]
        assert [len(r) for r in records] == [2, 4]
        loaded = TreeFragmentData(tree=tree, records=records, shots_per_variant=400)
        np.testing.assert_array_equal(
            reconstruct_tree_distribution(loaded, bases=bases),
            reconstruct_tree_distribution(data, bases=bases),
        )

    def test_load_casts_dtype(self, simple_cut_pair, tmp_path):
        qc, spec, _ = simple_cut_pair
        tree = pair_tree(qc, spec)
        data = exact_tree_data(tree)
        ck = TreeCheckpoint(tmp_path / "d", tree, 0)
        ck.save_fragment(0, data.records[0])
        records, _ = ck.load_fragment(0, data.fragment_variants(0), dtype=np.float32)
        for key, ref in data.records[0].items():
            assert records[key].dtype == np.float32
            np.testing.assert_allclose(records[key], ref, atol=1e-7)

    def test_not_an_archive(self, simple_cut_pair, tmp_path):
        qc, spec, _ = simple_cut_pair
        (tmp_path / "junk").mkdir()
        (tmp_path / "junk" / "manifest.json").write_text(
            json.dumps({"format_version": 99, "signature": "0" * 64})
        )
        with pytest.raises(ReconstructionError):
            TreeCheckpoint(tmp_path / "junk", pair_tree(qc, spec), 100)


class TestReconstructCounts:
    def test_counts_scale(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        counts = reconstruct_counts(data, shots=10_000)
        assert abs(sum(counts.values()) - 10_000) <= len(counts)
        assert all(len(k) == 3 for k in counts)

    def test_counts_match_distribution(self, simple_cut_pair):
        qc, spec, _ = simple_cut_pair
        data = exact_tree_data(pair_tree(qc, spec))
        counts = reconstruct_counts(data, shots=100_000)
        truth = simulate_statevector(qc).probabilities()
        from repro.sim.sampler import counts_to_probs

        np.testing.assert_allclose(
            counts_to_probs(counts, 3), truth, atol=2e-4
        )


class TestExpectationModule:
    def test_diagonal_expectation(self):
        probs = np.array([0.25, 0.75])
        diag = np.array([1.0, -1.0])
        assert expectation_from_probs(probs, diag) == pytest.approx(-0.5)

    def test_shape_mismatch(self):
        with pytest.raises(SimulationError):
            expectation_from_probs(np.ones(2) / 2, np.ones(4))

    def test_complex_diagonal_rejected(self):
        with pytest.raises(SimulationError):
            expectation_from_probs(
                np.ones(2) / 2, np.array([1.0 + 1.0j, 0.0])
            )

    @pytest.mark.parametrize("label", ["Z", "X", "Y"])
    def test_single_qubit_eigenstate(self, label):
        """⟨P⟩ = +1 on P's own +1 eigenstate."""
        from repro.cutting import PREPARATION_STATES

        qc = Circuit(1)
        for g in PREPARATION_STATES[f"{label}+"]:
            qc.add_gate(g, (0,))
        val = expectation_of_observable(qc, PauliString.from_label(label))
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_matches_dense_for_random_circuits(self, rng):
        labels = ["I", "X", "Y", "Z"]
        for seed in range(5):
            qc = random_circuit(3, 4, seed=seed + 500)
            lab = "".join(rng.choice(labels, 3))
            p = PauliString.from_label(lab)
            v = simulate_statevector(qc).vector()
            dense = float(np.real(np.vdot(v, p.to_matrix() @ v)))
            assert expectation_of_observable(qc, p) == pytest.approx(
                dense, abs=1e-9
            )

    def test_width_mismatch(self):
        with pytest.raises(SimulationError):
            expectation_of_observable(
                Circuit(2).h(0), PauliString.from_label("Z")
            )

    def test_phase_carries_through(self):
        qc = Circuit(1)  # |0>: <Z> = 1
        p = PauliString.from_label("Z", phase=-2.0)
        assert expectation_of_observable(qc, p) == pytest.approx(-2.0)
