"""Cutting a QAOA MaxCut circuit — combinatorial optimisation workload.

The paper's introduction motivates circuit cutting with exactly this class
of application (refs [9], [20]: QAOA / quantum divide-and-conquer).  Here a
6-node ring MaxCut QAOA circuit that does not fit a 4-qubit device is cut,
executed fragment-by-fragment, and the cost function ``⟨C⟩ = Σ (1−ZZ)/2``
is evaluated from the reconstructed distribution.

QAOA's RX mixer makes the upstream state complex, so generically *no* basis
is golden — the online detector verifies this and keeps the full protocol
(safety), while the variance model predicts the shot noise of the estimate.

Run:  python examples/qaoa_maxcut_cutting.py
"""

import networkx as nx
import numpy as np

from repro import IdealBackend, cut_and_run
from repro.circuits import qaoa_maxcut_circuit
from repro.observables import maxcut_hamiltonian
from repro.sim import simulate_statevector

SHOTS = 30_000
SEED = 11


def main() -> None:
    graph = nx.cycle_graph(6)
    gammas, betas = [0.65], [0.45]  # decent p=1 angles for the ring
    qc = qaoa_maxcut_circuit(graph, gammas, betas)
    cost = maxcut_hamiltonian(graph)
    print(f"workload: 6-node ring MaxCut QAOA (p=1), {len(qc)} gates")

    exact_energy = cost.expectation_exact(qc)
    truth = simulate_statevector(qc).probabilities()

    # spec-free mode: cut_and_run searches for the cuts itself, so all we
    # supply is the device budget
    run = cut_and_run(
        qc, IdealBackend(), cuts=None, max_fragment_qubits=4, shots=SHOTS,
        golden="detect", pilot_shots=5_000, seed=SEED,
    )
    pair = run.pair
    print(f"auto cut search: {pair.num_cuts} cut(s); {pair.describe()}")
    print("\ndetector verdicts (QAOA mixers are complex -> expect no golden):")
    for d in run.detection:
        flag = "GOLDEN" if d.is_golden else "keep"
        print(f"  cut {d.cut} basis {d.basis}: {flag:6s} max|z|={d.max_z:.1f}")

    energy_cut = run.expectation(cost.diagonal())
    sigma = run.predicted_stddev_tv()
    print(f"\n⟨C⟩ exact        = {exact_energy:.4f}")
    print(f"⟨C⟩ from cutting = {energy_cut:.4f}")
    print(f"predicted shot-noise scale (TV proxy) = {sigma:.4f}")
    best = int(np.argmax(cost.diagonal()))
    print(f"best cut value on this graph: {cost.diagonal().max():.0f} "
          f"(e.g. bitstring index {best})")

    assert abs(energy_cut - exact_energy) < 0.1
    print("\nOK: QAOA cost evaluated on fragments matches the uncut circuit.")


if __name__ == "__main__":
    main()
