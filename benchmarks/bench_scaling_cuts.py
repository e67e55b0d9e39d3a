"""Ablation: the §II-B scaling claims O(4^{K_r} 3^{K_g}) / O(6^{K_r} 4^{K_g}).

Not a figure in the paper — the derivation the paper states without
measurement.  We build K = 1..3 cut bipartitions (2-node fragment trees)
whose cuts are all golden,
neglect 0..K of them, and measure reconstruction time and variant counts.
"""

import pytest

from repro.core.neglect import tree_reduced_variants
from repro.cutting import partition_tree
from repro.cutting.execution import exact_tree_data
from repro.cutting.reconstruction import reconstruct_tree_distribution
from repro.harness.report import format_table
from repro.harness.scaling import multi_cut_golden_circuit, run_scaling

from conftest import register_report

_qc3, _spec3 = multi_cut_golden_circuit(3, depth=2, seed=780)
_tree3 = partition_tree(_qc3, [_spec3])


@pytest.mark.benchmark(group="scaling-K3-reconstruction")
def test_reconstruct_k3_standard(benchmark):
    data = exact_tree_data(_tree3)
    out = benchmark(reconstruct_tree_distribution, data, postprocess="raw")
    assert out.size == 1 << _qc3.num_qubits


@pytest.mark.benchmark(group="scaling-K3-reconstruction")
def test_reconstruct_k3_all_golden(benchmark):
    bases, variants = tree_reduced_variants(_tree3, [{k: "Y" for k in range(3)}])
    data = exact_tree_data(_tree3, variants=variants)
    out = benchmark(
        reconstruct_tree_distribution, data, bases=bases, postprocess="raw"
    )
    assert out.size == 1 << _qc3.num_qubits


def test_scaling_grid_table(benchmark):
    rows = benchmark.pedantic(
        run_scaling, kwargs=dict(max_cuts=3, depth=2, seed=777, repeats=3),
        rounds=1, iterations=1,
    )
    register_report(
        format_table(
            rows,
            title="Scaling ablation — terms 4^{K_r}·3^{K_g}, variants "
            "3^{K_r}2^{K_g}+6^{K_r}4^{K_g}, measured reconstruction time",
        )
    )
    for r in rows:
        K, kg = r["K"], r["K_golden"]
        assert r["rows(4^Kr*3^Kg)"] == 4 ** (K - kg) * 3**kg
    k3 = {r["K_golden"]: r["reconstruct_ms"] for r in rows if r["K"] == 3}
    assert k3[3] < k3[0]
