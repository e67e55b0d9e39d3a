"""Multi-cut bipartitions and the 4^{K_r}·3^{K_g} cost scaling (paper §II-B).

The paper derives that with ``K_g`` golden and ``K_r`` regular cuts the
reconstruction handles ``4^{K_r} 3^{K_g}`` terms and the fragments need
``6^{K_r} 4^{K_g}`` downstream initialisations.  This example builds
circuits with K = 1..3 cuts whose cut wires are all Y-golden, marks an
increasing number of them as golden, and verifies both the cost table and
the exactness of every reduced reconstruction.

It then goes beyond the paper's bipartitions: a genuine **3-fragment
chain** (two cut groups, CutQC-style) is cut, executed through the
per-fragment cache pool, and reconstructed with the generalised einsum
contraction — exactly, with and without golden neglect per cut group.

Run:  python examples/multi_cut_scaling.py
"""

import numpy as np

from repro import (
    IdealBackend,
    partition_chain,
    partition_tree,
    simulate_statevector,
)
from repro.core.neglect import tree_reduced_variants
from repro.core.pipeline import cut_and_run_chain
from repro.cutting.execution import exact_chain_data, exact_tree_data
from repro.cutting.reconstruction import (
    reconstruct_chain_distribution,
    reconstruct_tree_distribution,
)
from repro.harness.report import format_table
from repro.harness.scaling import (
    chain_cut_circuit,
    multi_cut_golden_circuit,
    run_scaling,
)


def main() -> None:
    print("verifying exactness of reduced reconstructions on a K=2 circuit...")
    qc, spec = multi_cut_golden_circuit(2, depth=2, seed=99)
    tree = partition_tree(qc, [spec])  # one cut group: a 2-node tree
    truth = simulate_statevector(qc).probabilities()
    for kg in range(3):
        golden = {k: "Y" for k in range(kg)}
        bases, variants = tree_reduced_variants(tree, [golden or None])
        p = reconstruct_tree_distribution(
            exact_tree_data(tree, variants=variants),
            bases=bases,
            postprocess="raw",
        )
        err = float(np.abs(p - truth).max())
        print(f"  K=2, {kg} golden cut(s): max |error| = {err:.2e}")
        assert err < 1e-9

    print("\ncost/time scaling grid (K = cuts, K_golden = neglected):")
    rows = run_scaling(max_cuts=3, depth=2, seed=5, repeats=3)
    print(format_table(rows))

    k3 = {r["K_golden"]: r for r in rows if r["K"] == 3}
    print(
        f"\nK=3: golden cuts shrink terms {k3[0]['rows(4^Kr*3^Kg)']} -> "
        f"{k3[3]['rows(4^Kr*3^Kg)']} and variants "
        f"{k3[0]['variants']} -> {k3[3]['variants']}"
    )

    print("\n--- 3-fragment chain (two cut groups) ---")
    qc, specs = chain_cut_circuit(
        3, cuts_per_group=1, fresh_per_fragment=2, depth=2, seed=21,
        real_blocks=True,
    )
    chain = partition_chain(qc, specs)
    print(f"{chain.describe()}  over {qc.num_qubits} qubits")
    truth = simulate_statevector(qc).probabilities()

    # exact fragment data through the per-fragment cache pool
    data = exact_chain_data(chain)
    p = reconstruct_chain_distribution(data, postprocess="raw")
    err = float(np.abs(p - truth).max())
    print(f"exact chain reconstruction: max |error| = {err:.2e}")
    assert err < 1e-9

    # neglect per cut group: both groups are Y-golden by construction
    res = cut_and_run_chain(
        qc, IdealBackend(exact=True), specs, shots=200_000,
        golden="known", golden_maps=[{0: "Y"}, {0: "Y"}],
        seed=7, postprocess="raw",
    )
    err = float(np.abs(res.probabilities - truth).max())
    full = cut_and_run_chain(
        qc, IdealBackend(exact=True), specs, shots=200_000, seed=7,
        postprocess="raw",
    )
    print(
        f"golden chain run: max |error| = {err:.2e}, "
        f"executions {full.total_executions} -> {res.total_executions}"
    )


if __name__ == "__main__":
    main()
