"""Golden cutting points in a QML-style variational workload (paper §IV).

The paper's conclusion singles out quantum machine learning circuits as
natural golden-cutting-point candidates because their ansätze are flexible
and lightly constrained.  The standard *real-amplitudes* ansatz (RY + CX)
is exactly such a circuit — and because all its gates are real, **every**
wire cut of it is Y-golden for computational-basis observables.

This example takes a 6-qubit real-amplitudes classifier ansatz that does
not fit a 4-qubit device, finds a cut automatically, confirms the golden
basis analytically, and evaluates the model's output distribution and a
parity "decision function" on 4-qubit fragments only.

Run:  python examples/qml_workload.py
"""

import numpy as np

from repro import (
    DiagonalObservable,
    IdealBackend,
    bipartition,
    cut_and_run,
    find_cuts,
    find_tree_golden_bases_analytic,
    partition_tree,
    real_amplitudes_ansatz,
    simulate_statevector,
    total_variation,
)

N_QUBITS = 6
DEVICE_LIMIT = 4
SHOTS = 30_000
SEED = 123


def main() -> None:
    # reps=1 keeps the entangling ladder crossing the bipartition once, so
    # a single wire cut suffices.  (With more reps the boundary is crossed
    # repeatedly and a single-cut-per-wire bipartition needs several cuts;
    # Y then stays golden only for rows with an odd number of Ys — the
    # analytic finder checks exactly that, see DESIGN.md §6.)
    qc = real_amplitudes_ansatz(N_QUBITS, reps=1, seed=SEED)
    print(f"workload: {qc.name} — {N_QUBITS} qubits, {len(qc)} gates; "
          f"device limit {DEVICE_LIMIT} qubits")

    cuts = find_cuts(qc, max_fragment_qubits=DEVICE_LIMIT)
    pair = bipartition(qc, cuts)
    print(f"auto cut search: {cuts.num_cuts} cut(s) on wire(s) {cuts.wires}; "
          f"{pair.describe()}")

    found, _ = find_tree_golden_bases_analytic(partition_tree(qc, [cuts]))
    golden = found[0]
    print(f"golden bases found analytically: {golden}")
    assert all("Y" in bs for bs in golden.values()), "real ansatz must be Y-golden"

    truth = simulate_statevector(qc).probabilities()
    run = cut_and_run(
        qc, IdealBackend(), cuts=cuts, shots=SHOTS, golden="analytic", seed=SEED
    )
    tv = total_variation(run.probabilities, truth)

    parity = DiagonalObservable.parity(N_QUBITS)
    decision_exact = parity.expectation(truth)
    decision_cut = run.expectation(parity.diagonal)

    print()
    print(f"variants executed: {run.costs.num_variants} "
          f"(standard would need {3**cuts.num_cuts + 6**cuts.num_cuts})")
    print(f"TV(reconstruction, exact) = {tv:.4f}")
    print(f"parity decision function: exact {decision_exact:+.4f}  "
          f"cut {decision_cut:+.4f}")
    assert tv < 0.05 and abs(decision_cut - decision_exact) < 0.05
    print("\nOK: the QML ansatz was evaluated entirely on "
          f"{DEVICE_LIMIT}-qubit fragments with the Y basis neglected.")


if __name__ == "__main__":
    main()
