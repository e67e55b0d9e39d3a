"""Empirical golden-cut detection from finite-shot measurements.

The paper's §IV poses online detection as future work; this module provides
the statistical machinery: given a cut group's measuring-fragment data with
``N`` shots per setting, test H₀ "basis ``M*`` is golden at cut ``k``" (all
weighted outcome differences are zero) against the observed deviations.

Test statistic.  For each context (setting ``S`` with ``S_k = M*``, output
``b₁``, other-cut outcomes ``r₋ₖ``) the estimator

.. math::

    \\hat\\Delta = \\hat p(b_1, r_k{=}0, r_{-k}) - \\hat p(b_1, r_k{=}1, r_{-k})

has, under H₀ (true Δ = 0), variance ``(p₀ + p₁)/N`` where ``p₀+p₁`` is the
context's total probability — estimated by the observed mass.  We form
per-context z-scores and apply a Bonferroni correction over the ``m``
contexts tested: the basis is declared golden when ``max |z| <
Φ⁻¹(1 − α/(2m))``.  Bonferroni keeps the family-wise false-*rejection* rate
(declaring a truly-golden basis non-golden) below α; the miss direction
(keeping a non-golden basis) only costs shots, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import stats

from repro.config import DEFAULT_ALPHA
from repro.exceptions import DetectionError

__all__ = [
    "GoldenDetectionResult",
    "detect_chain_golden_bases",
    "detect_tree_golden_bases",
]


@dataclass(frozen=True)
class GoldenDetectionResult:
    """Verdict for one (cut, basis) candidate."""

    cut: int
    basis: str
    is_golden: bool
    max_z: float
    threshold: float
    num_contexts: int
    alpha: float
    #: cut group the candidate belongs to (0 for bipartitions)
    group: int = 0

    @property
    def p_value(self) -> float:
        """Bonferroni-adjusted p-value of the observed maximum |z|."""
        tail = 2.0 * (1.0 - stats.norm.cdf(self.max_z))
        return float(min(1.0, tail * self.num_contexts))


def _verdict(
    z: np.ndarray, cut: int, basis: str, alpha: float, group: int
) -> GoldenDetectionResult:
    """Bonferroni verdict from one candidate's vector of |z| statistics."""
    m = int(z.size)
    threshold = float(stats.norm.ppf(1.0 - alpha / (2.0 * m)))
    max_z = float(z.max()) if m else 0.0
    return GoldenDetectionResult(
        cut=cut,
        basis=basis,
        is_golden=bool(max_z < threshold),
        max_z=max_z,
        threshold=threshold,
        num_contexts=m,
        alpha=alpha,
        group=group,
    )


def _tree_candidate_z_scores(
    data, group: int, cut: int, basis: str, shots: int
) -> np.ndarray:
    """Per-context |z| statistics for one tree cut-group candidate.

    Contexts run over every ``(prep context, setting)`` variant of the
    group's **source node** whose setting measures the candidate cut (in
    the node's flat layout) in ``basis``, times that variant's
    ``(b_out, r_{-cut})`` cells — the parent group's entering
    preparations, and at a branching node the sibling groups' settings,
    count into the Bonferroni family.
    """
    from repro.core.golden import _tree_group_frame, iter_chain_cut_deltas

    records, K_flat, flat_cut = _tree_group_frame(data, group, cut)
    zs = []
    for delta, mass in iter_chain_cut_deltas(records, K_flat, flat_cut, basis):
        sigma = np.sqrt(np.maximum(mass, 1.0 / shots) / shots)
        zs.append((np.abs(delta) / sigma).ravel())
    return np.concatenate(zs)


def detect_tree_golden_bases(
    data,
    group: int,
    alpha: float = DEFAULT_ALPHA,
    cuts: "list[int] | None" = None,
    bases: tuple[str, ...] = ("X", "Y", "Z"),
) -> list[GoldenDetectionResult]:
    """Test every (cut, basis) candidate of one tree cut group.

    ``data`` is finite-shot :class:`~repro.cutting.execution.TreeFragmentData`
    whose source-node records hold the pilot measurements (interior
    fragments: one variant per *prep context × setting* over the node's
    flat cut union; pilot pipelines pass the spanning context pool of
    :func:`repro.core.neglect.spanning_init_tuples`, conditioned on the
    parent group's verdict — see
    :func:`~repro.core.golden.find_tree_golden_bases_analytic` for why the
    sweep is a sequential root-to-leaves BFS).  The per-candidate
    hypothesis test is the Bonferroni-corrected max-|z| machinery of the
    module docstring, with the prep contexts (and sibling
    groups' settings, at a branching node) multiplying the corrected
    family size, so the family-wise false-rejection guarantee (≤ ``alpha``
    per candidate) is preserved group by group.
    """
    if data.shots_per_variant <= 0:
        raise DetectionError(
            "detection needs finite-shot data; for exact data use "
            "repro.core.golden.find_tree_golden_bases_analytic"
        )
    tree = data.tree
    if not 0 <= group < tree.num_groups:
        raise DetectionError(
            f"cut group {group} out of range ({tree.num_groups} groups)"
        )
    shots = data.shots_per_variant
    if cuts is None:
        cuts = list(range(tree.group_sizes[group]))
    out: list[GoldenDetectionResult] = []
    for k in cuts:
        for b in bases:
            z = _tree_candidate_z_scores(data, group, k, b, shots)
            out.append(_verdict(z, k, b, alpha, group=group))
    return out


def detect_chain_golden_bases(
    data,
    group: int,
    alpha: float = DEFAULT_ALPHA,
    cuts: "list[int] | None" = None,
    bases: tuple[str, ...] = ("X", "Y", "Z"),
) -> list[GoldenDetectionResult]:
    """Chain alias of :func:`detect_tree_golden_bases` (linear tree)."""
    return detect_tree_golden_bases(
        data, group, alpha=alpha, cuts=cuts, bases=bases
    )
