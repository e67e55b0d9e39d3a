"""Tests for cutting with general Pauli observables (Eq. 14's full scope)."""

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.circuits import Circuit, random_circuit
from repro.cutting import bipartition, partition_tree
from repro.cutting.pauli_cut import (
    cut_pauli_expectation,
    cut_pauli_sum_expectation,
    observable_diagonal,
    rotated_circuit,
)
from repro.exceptions import ReproError
from repro.linalg.paulis import PauliString
from repro.observables import PauliSumObservable
from repro.sim.expectation import expectation_of_observable

from tests.helpers import two_block_circuit


@pytest.fixture(scope="module")
def workload():
    qc, spec = two_block_circuit(4, [0, 1], [1, 2, 3], depth=3, seed=42)
    return qc, spec, bipartition(qc, spec)


# a high-shot ideal backend keeps statistical error ~1e-2
_SHOTS = 200_000


class TestRotatedCircuit:
    def test_rotations_only_on_output_wires(self, workload):
        qc, spec, _ = workload
        obs = PauliString.from_label("XYZI")
        plain = partition_tree(qc, [spec])
        rot = partition_tree(rotated_circuit(qc, obs), [spec])
        extra = [
            len(r.circuit) - len(p.circuit)
            for r, p in zip(rot.fragments, plain.fragments)
        ]
        # measuring-fragment output = qubit 0 (X -> 1 gate); preparing
        # fragment outputs qubits 1,2,3 (Y -> 2 gates, Z/I -> none)
        assert extra == [1, 2]
        # cut wires untouched: none of the appended gates acts on them
        root = rot.fragments[0]
        for inst in root.circuit.instructions[len(plain.fragments[0].circuit):]:
            assert inst.qubits[0] not in root.cut_local

    def test_width_mismatch(self, workload):
        qc, _, _ = workload
        with pytest.raises(ReproError):
            rotated_circuit(qc, PauliString.from_label("XX"))

    def test_diagonal_shape(self, workload):
        qc, _, _ = workload
        d = observable_diagonal(PauliString.from_label("ZXYI"))
        assert d.shape == (1 << qc.num_qubits,)

    def test_phase_scales_diagonal(self):
        d = observable_diagonal(PauliString.from_label("ZIII", phase=-3.0))
        assert d.max() == pytest.approx(3.0)

    def test_imaginary_phase_rejected(self):
        with pytest.raises(ReproError):
            observable_diagonal(PauliString.from_label("ZIII", phase=1j))


class TestPauliExpectation:
    @pytest.mark.parametrize(
        "label", ["ZZZZ", "XIII", "IYII", "XYZI", "YYXX", "IIII", "XXXX"]
    )
    def test_matches_exact(self, workload, label):
        qc, spec, _ = workload
        obs = PauliString.from_label(label)
        exact = expectation_of_observable(qc, obs)
        est = cut_pauli_expectation(
            qc, spec, IdealBackend(), obs, shots=_SHOTS, seed=5
        )
        assert est == pytest.approx(exact, abs=0.02)

    def test_golden_mode_on_real_upstream(self):
        qc, spec = two_block_circuit(
            4, [0, 1], [1, 2, 3], depth=3, seed=77, real_upstream=True
        )
        obs = PauliString.from_label("ZIZZ")
        exact = expectation_of_observable(qc, obs)
        est = cut_pauli_expectation(
            qc, spec, IdealBackend(), obs, shots=_SHOTS, golden="analytic", seed=6
        )
        assert est == pytest.approx(exact, abs=0.02)

    def test_invalid_golden_mode(self, workload):
        qc, spec, _ = workload
        from repro.exceptions import CutError

        with pytest.raises(CutError):
            cut_pauli_expectation(
                qc, spec, IdealBackend(), PauliString.from_label("ZZZZ"),
                golden="detect",
            )

    def test_random_observables_property(self, workload, rng):
        qc, spec, _ = workload
        labels = ["I", "X", "Y", "Z"]
        for trial in range(4):
            lab = "".join(rng.choice(labels, 4))
            obs = PauliString.from_label(lab)
            exact = expectation_of_observable(qc, obs)
            est = cut_pauli_expectation(
                qc, spec, IdealBackend(), obs, shots=_SHOTS, seed=100 + trial
            )
            assert est == pytest.approx(exact, abs=0.03), lab


class TestPauliSumExpectation:
    def test_transverse_ising_energy(self, workload):
        qc, spec, _ = workload
        h = PauliSumObservable.from_list(
            [
                (1.0, "ZZII"), (1.0, "IZZI"), (1.0, "IIZZ"),
                (-0.7, "XIII"), (-0.7, "IXII"), (-0.7, "IIXI"), (-0.7, "IIIX"),
            ]
        )
        exact = h.expectation_exact(qc)
        est, info = cut_pauli_sum_expectation(
            qc, spec, IdealBackend(), h, shots=_SHOTS // 4, seed=9
        )
        assert est == pytest.approx(exact, abs=0.05)
        # ZZ terms group together; X terms qubit-wise commute with each
        # other but not with the ZZ group
        assert info["num_groups"] == 2
        assert info["num_terms"] == 7

    def test_grouping_saves_executions(self, workload):
        qc, spec, _ = workload
        h = PauliSumObservable.from_list(
            [(0.5, "ZZII"), (0.5, "IZZI"), (0.5, "ZIZI")]
        )
        _, info = cut_pauli_sum_expectation(
            qc, spec, IdealBackend(), h, shots=1000, seed=1
        )
        assert info["num_groups"] == 1  # one run serves all three terms

    def test_width_mismatch(self, workload):
        qc, spec, _ = workload
        h = PauliSumObservable.from_list([(1.0, "ZZ")])
        with pytest.raises(ReproError):
            cut_pauli_sum_expectation(qc, spec, IdealBackend(), h)
