"""Quickstart: cut the paper's three-qubit example and reconstruct it.

Reproduces the walkthrough of paper §II-A (Fig. 1): a state
``U23 U12 |000⟩`` is cut on the middle wire, the two fragments are executed
independently, and the full output distribution is reassembled — first with
the standard 4-basis protocol, then exploiting the golden cutting point.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    IdealBackend,
    cut_and_run,
    draw,
    find_tree_golden_bases_analytic,
    partition_tree,
    simulate_statevector,
    three_qubit_example,
    total_variation,
)

SHOTS = 20_000
SEED = 7


def main() -> None:
    spec = three_qubit_example(seed=SEED, golden=True)
    qc = spec.circuit
    print("Three-qubit example (paper Fig. 1); cut on wire 1 after "
          f"instruction {spec.cut_spec.cuts[0].gate_index}:")
    print(draw(qc))
    print()

    truth = simulate_statevector(qc).probabilities()
    tree = partition_tree(qc, [spec.cut_spec])  # one cut: a 2-node tree
    print(tree.describe())

    found, _ = find_tree_golden_bases_analytic(tree)
    print(f"analytically golden bases per cut: {found[0]}")
    print()

    backend = IdealBackend()
    standard = cut_and_run(
        qc, backend, cuts=spec.cut_spec, shots=SHOTS, golden="off", seed=SEED
    )
    golden_run = cut_and_run(
        qc, backend, cuts=spec.cut_spec, shots=SHOTS, golden="analytic", seed=SEED
    )

    print(f"{'':24s}{'variants':>9s}{'executions':>12s}{'TV error':>10s}")
    for name, run in (("standard (4 bases)", standard), ("golden (Y neglected)", golden_run)):
        tv = total_variation(run.probabilities, truth)
        print(
            f"{name:24s}{run.costs.num_variants:>9d}"
            f"{run.total_executions:>12d}{tv:>10.4f}"
        )

    print()
    print("reconstructed vs exact distribution (golden run):")
    for b in range(8):
        bar = "#" * int(40 * golden_run.probabilities[b])
        print(f"  |{b:03b}⟩  exact {truth[b]:.3f}  cut {golden_run.probabilities[b]:.3f}  {bar}")

    assert total_variation(golden_run.probabilities, truth) < 0.05
    print("\nOK: golden reconstruction matches the uncut circuit.")


if __name__ == "__main__":
    main()
