"""CLI smoke tests and wide-circuit integration tests."""

import subprocess
import sys

import numpy as np
import pytest

from repro.backends import IdealBackend
from repro.circuits import Circuit, random_circuit
from repro.core import cut_and_run
from repro.cutting import bipartition, find_cuts
from repro.metrics import total_variation
from repro.sim import simulate_statevector

from tests.helpers import exact_pair_probs, two_block_circuit


class TestHarnessCli:
    def test_scaling_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", "--only", "scaling"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert "§II-B scaling" in proc.stdout
        assert "4^Kr*3^Kg" in proc.stdout

    def test_fig5_subcommand(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", "--only", "fig5"],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-1500:]
        assert "modeled device wall time" in proc.stdout

    def test_bad_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness", "--only", "fig9"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode != 0


class TestWideCircuits:
    """The library must scale past the paper's 5/7-qubit experiments."""

    def test_ten_qubit_exact_reconstruction(self):
        qc, spec = two_block_circuit(
            10, list(range(6)), list(range(5, 10)), depth=2, seed=3
        )
        p = exact_pair_probs(qc, spec)
        truth = simulate_statevector(qc).probabilities()
        np.testing.assert_allclose(p, truth, atol=1e-8)

    def test_nine_qubit_golden_pipeline(self):
        from repro.core import golden_ansatz

        spec = golden_ansatz(9, depth=2, seed=4)
        pair = bipartition(spec.circuit, spec.cut_spec)
        assert pair.n_up == 5 and pair.n_down == 5
        run = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec,
            shots=20_000, golden="analytic", seed=4,
        )
        assert "Y" in str(run.golden_used.get(0, ""))
        truth = simulate_statevector(spec.circuit).probabilities()
        assert total_variation(run.probabilities, truth) < 0.1

    def test_cut_search_on_wide_random_circuit(self):
        qc, _ = two_block_circuit(
            8, list(range(5)), list(range(4, 8)), depth=2, seed=6
        )
        spec = find_cuts(qc, max_fragment_qubits=6, max_cuts=2)
        pair = bipartition(qc, spec)
        assert max(pair.n_up, pair.n_down) <= 6


class TestCutRunResultVarianceApi:
    def test_variance_vector_shape(self):
        qc, spec = two_block_circuit(4, [0, 1], [1, 2, 3], seed=8)
        run = cut_and_run(qc, IdealBackend(), cuts=spec, shots=1000, seed=1)
        var = run.variance()
        assert var.shape == run.probabilities.shape
        assert np.all(var >= 0)

    def test_variance_respects_golden_bases(self):
        from repro.core import golden_ansatz

        spec = golden_ansatz(5, seed=31)
        run = cut_and_run(
            spec.circuit, IdealBackend(), cuts=spec.cut_spec, shots=1000,
            golden="known", golden_map={0: "Y"}, seed=2,
        )
        # must not raise despite the missing Y setting, and stay finite
        assert np.isfinite(run.variance()).all()
        assert run.predicted_stddev_tv() > 0
