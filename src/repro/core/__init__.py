"""The paper's contribution: golden cutting points (neglecting basis elements).

Layered on the :mod:`repro.cutting` baseline:

* :mod:`repro.core.ansatz` — circuit families with built-in golden cuts
  (paper Figs. 1–2),
* :mod:`repro.core.golden` — the exact (analytic) Definition-1 finder,
* :mod:`repro.core.detection` — the empirical finite-shot detector
  (paper §IV "online detection" future work),
* :mod:`repro.core.neglect` — reduced variant/basis sets for golden cuts,
* :mod:`repro.core.costs` — the O(4^{K_r}3^{K_g}) / O(6^{K_r}4^{K_g}) cost
  model,
* :mod:`repro.core.pipeline` — the one-call ``cut_and_run_tree`` engine
  and its single-cut ``cut_and_run`` wrapper.
"""

from repro.core.ansatz import (
    golden_ansatz,
    three_qubit_example,
    GoldenAnsatzSpec,
)
from repro.core.golden import (
    chain_definition1_deviation,
    find_chain_golden_bases_analytic,
    find_tree_golden_bases_analytic,
    select_all_golden,
    tree_definition1_deviation,
)
from repro.core.detection import (
    GoldenDetectionResult,
    detect_chain_golden_bases,
    detect_tree_golden_bases,
)
from repro.core.neglect import (
    GoldenMap,
    chain_pilot_combos,
    normalize_golden_map,
    tree_pilot_combos,
    reduced_bases,
    reduced_init_tuples,
    reduced_setting_tuples,
    spanning_init_tuples,
)
from repro.core.costs import CostReport, cost_report, predicted_speedup
from repro.core.pipeline import (
    ChainRunResult,
    CutRunResult,
    TreeRunResult,
    cut_and_run,
    cut_and_run_chain,
    cut_and_run_tree,
)

__all__ = [
    "golden_ansatz",
    "three_qubit_example",
    "GoldenAnsatzSpec",
    "chain_definition1_deviation",
    "tree_definition1_deviation",
    "find_chain_golden_bases_analytic",
    "find_tree_golden_bases_analytic",
    "select_all_golden",
    "GoldenDetectionResult",
    "detect_chain_golden_bases",
    "detect_tree_golden_bases",
    "GoldenMap",
    "normalize_golden_map",
    "reduced_bases",
    "reduced_setting_tuples",
    "reduced_init_tuples",
    "spanning_init_tuples",
    "chain_pilot_combos",
    "tree_pilot_combos",
    "CostReport",
    "cost_report",
    "predicted_speedup",
    "CutRunResult",
    "cut_and_run",
    "ChainRunResult",
    "TreeRunResult",
    "cut_and_run_chain",
    "cut_and_run_tree",
]
