"""Reduced basis/variant sets for golden cuts — the actual "neglecting".

Given a map ``{cut index: golden basis or bases}`` these helpers produce:

* the reconstruction basis pools (golden bases removed → the
  ``4^{K_r} 3^{K_g}``-term sum of paper §II-B, or smaller when a cut has
  *several* negligible bases),
* the upstream measurement settings actually worth running (each golden
  basis's setting is skipped; if every basis is golden one setting is kept
  so the ``I`` row — the outcome marginal — can still be estimated),
* the downstream preparation tuples actually worth running (golden-basis
  eigenstates are skipped — *unless* the basis is ``Z``, whose eigenstates
  are shared with ``I`` and must stay; this asymmetry is captured
  faithfully and surfaced by the cost model).

Multiple golden bases per cut are supported because they occur naturally:
a cut qubit left in a computational basis state carries no X *or* Y
information (both bases golden, 4 → 2 reconstruction terms), and a cut
qubit in a product state with the rest of the fragment can have all three
Paulis negligible (the cut then contributes a single ``I`` term).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence, Union

from repro.cutting.reconstruction import FULL_BASES
from repro.cutting.variants import (
    MEASUREMENT_SETTINGS,
    downstream_init_tuples,
    preparations_for_bases,
    upstream_setting_tuples,
)
from repro.exceptions import CutError

__all__ = [
    "GoldenMap",
    "normalize_golden_map",
    "reduced_bases",
    "reduced_setting_tuples",
    "reduced_init_tuples",
    "spanning_init_tuples",
    "chain_pilot_combos",
    "tree_pilot_combos",
    "tree_reduced_variants",
]

#: cut index -> one golden basis or several
GoldenMap = Mapping[int, Union[str, Sequence[str]]]


def normalize_golden_map(
    num_cuts: int, golden: GoldenMap
) -> dict[int, tuple[str, ...]]:
    """Validate and canonicalise a golden map to ``{cut: (bases...)}``."""
    out: dict[int, tuple[str, ...]] = {}
    for k, value in golden.items():
        if not 0 <= k < num_cuts:
            raise CutError(f"golden cut index {k} out of range (K={num_cuts})")
        bases = (value,) if isinstance(value, str) else tuple(value)
        if not bases:
            raise CutError(f"cut {k} has an empty golden-basis list")
        seen: list[str] = []
        for b in bases:
            if b not in ("X", "Y", "Z"):
                raise CutError(
                    f"golden basis must be X/Y/Z, got {b!r} for cut {k}"
                )
            if b not in seen:
                seen.append(b)
        out[k] = tuple(seen)
    return out


def reduced_bases(num_cuts: int, golden: GoldenMap) -> list[tuple[str, ...]]:
    """Reconstruction basis pool per cut with golden bases removed.

    A regular cut keeps ``(I, X, Y, Z)``; each golden basis removes one
    element (paper: terms ``4^K → 4^{K_r} 3^{K_g}`` for one basis per
    golden cut).  ``I`` always remains, so pools are never empty.
    """
    gm = normalize_golden_map(num_cuts, golden)
    return [
        tuple(b for b in FULL_BASES if b not in gm.get(k, ()))
        for k in range(num_cuts)
    ]


def reduced_setting_tuples(
    num_cuts: int, golden: GoldenMap
) -> list[tuple[str, ...]]:
    """Upstream measurement settings skipping golden bases.

    Every golden basis removes its setting (3 → 2 per single-basis golden
    cut): for X/Y-golden the basis is simply not measured; for Z-golden the
    ``I`` row falls back to another setting's outcome marginal (handled by
    :func:`repro.cutting.reconstruction.build_chain_fragment_tensor`).  If all
    three bases are golden, one setting (Z) is retained purely for the
    ``I``-row marginal.
    """
    gm = normalize_golden_map(num_cuts, golden)
    allowed = []
    for k in range(num_cuts):
        pool = tuple(s for s in MEASUREMENT_SETTINGS if s not in gm.get(k, ()))
        if not pool:
            pool = ("Z",)  # marginal-only cut still needs one measurement
        allowed.append(pool)
    return upstream_setting_tuples(num_cuts, allowed)


def reduced_init_tuples(
    num_cuts: int, golden: GoldenMap
) -> list[tuple[str, ...]]:
    """Downstream preparations skipping golden-basis eigenstates.

    X/Y-golden cuts drop two preparation states each (6 → 4 → 2, the
    paper's circuit-evaluation saving); Z-golden cuts keep ``|0⟩,|1⟩``
    because they still serve the ``I`` component.
    """
    gm = normalize_golden_map(num_cuts, golden)
    allowed = [
        tuple(b for b in FULL_BASES if b not in gm.get(k, ()))
        for k in range(num_cuts)
    ]
    return downstream_init_tuples(num_cuts, allowed)


#: negative-eigenstate codes redundant for *spanning* purposes: the density
#: matrices satisfy ``X− = Z+ + Z− − X+`` and ``Y− = Z+ + Z− − Y+``, so
#: dropping them changes no operator span, only the shot bill.
_REDUNDANT_PREPS = ("X-", "Y-")


def spanning_init_tuples(
    num_cuts: int, golden: "GoldenMap | None" = None
) -> list[tuple[str, ...]]:
    """A minimal preparation-tuple pool spanning the kept operator space.

    Per cut, the states whose density matrices span the same Hermitian
    subspace as the full (or golden-reduced) preparation pool: ``X−`` and
    ``Y−`` are linear combinations of the rest, so the standard 6 states
    shrink to ``(Z+, Z−, X+, Y+)`` — the chain caches' ``4^K`` Hermitian
    framing — and a Y-golden cut to ``(Z+, Z−, X+)``.  Because fragment
    response is *linear* in the entering state, a deviation that vanishes on
    this pool vanishes for every preparation the reconstruction can inject;
    pilot detection and the analytic chain finder therefore probe only
    these contexts (``6^K → 4^K`` pilot variants per entering group).
    """
    gm = normalize_golden_map(num_cuts, golden) if golden else {}
    allowed = [
        tuple(b for b in FULL_BASES if b not in gm.get(k, ()))
        for k in range(num_cuts)
    ]
    pools = [
        tuple(
            code
            for code in preparations_for_bases(b)
            if code not in _REDUNDANT_PREPS
        )
        for b in allowed
    ]
    # pools are never empty: "I" survives any golden map, contributing Z±
    return list(itertools.product(*pools))


def tree_pilot_combos(
    num_prep: int, num_meas: int, golden_prev: "GoldenMap | None" = None
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """The ``(prep context, setting)`` combos one tree fragment pilots.

    The single definition of the detection sweep's probe pool, shared by
    the analytic finder, the pilot pipeline and the benches so they cannot
    drift apart: the spanning preparation contexts of the *entering* group
    (conditioned on its committed neglect ``golden_prev``) crossed with
    every measurement setting over the fragment's flat exiting cuts — on a
    branching node that covers every child group at once, so one pilot run
    serves all of them.  The root and leaves degenerate naturally (no preps
    → one empty context; no exiting cuts → nothing to pilot, one empty
    setting).
    """
    contexts = (
        spanning_init_tuples(num_prep, golden_prev) if num_prep else [()]
    )
    settings = (
        upstream_setting_tuples(num_meas) if num_meas else [()]
    )
    return [(a, s) for a in contexts for s in settings]


def tree_reduced_variants(
    tree, golden_used: "Sequence[GoldenMap | None]"
) -> tuple[list, list]:
    """The full variant plan of a tree under committed per-group neglect.

    ``golden_used[g]`` is the golden map committed for cut group ``g`` (or
    ``None``).  Returns ``(bases, variants)``:

    * ``bases[g]`` — the reconstruction basis pool per cut of group ``g``
      (full ``(I, X, Y, Z)`` where nothing was neglected);
    * ``variants[i]`` — fragment ``i``'s ``(inits, setting)`` combos: the
      entering group's reduced preparations crossed with the reduced
      settings over the node's *flat* cut layout, each exiting group's map
      re-addressed at its :meth:`~repro.cutting.tree.TreeFragment
      .group_offset`.

    This is the single definition shared by the production pipeline
    (:func:`repro.core.pipeline.cut_and_run_tree`) and the cut searcher's
    cost objective, so the searcher prices exactly the variant set the
    pipeline would run.
    """
    if len(golden_used) != tree.num_groups:
        raise CutError("need one golden map (or None) per cut group")
    bases = [
        reduced_bases(tree.group_sizes[g], gm)
        if gm
        else [tuple(FULL_BASES)] * tree.group_sizes[g]
        for g, gm in enumerate(golden_used)
    ]
    variants = []
    for frag in tree.fragments:
        kp = frag.num_prep
        kn = frag.num_meas
        # per-group golden maps re-addressed in the node's flat prep
        # layout (entering groups concatenated in group order — joint-prep
        # DAG nodes have several)
        gm_prev: dict = {}
        for h in frag.in_groups:
            gm = golden_used[h]
            if gm:
                off = frag.prep_offset(h)
                for k, v in gm.items():
                    gm_prev[off + k] = v
        if not kp:
            inits = [()]
        elif gm_prev:
            inits = reduced_init_tuples(kp, gm_prev)
        else:
            inits = downstream_init_tuples(kp)
        if not kn:
            settings = [()]
        else:
            # per-group golden maps re-addressed in the node's flat cut
            # layout (child groups concatenated in group order)
            flat_gm: dict = {}
            for h in frag.meas_groups:
                gm = golden_used[h]
                if gm:
                    off = frag.group_offset(h)
                    for k, v in gm.items():
                        flat_gm[off + k] = v
            if flat_gm:
                settings = reduced_setting_tuples(kn, flat_gm)
            else:
                settings = upstream_setting_tuples(kn)
        variants.append([(a, s) for a in inits for s in settings])
    return bases, variants


#: chains are linear trees; the chain name remains an alias
chain_pilot_combos = tree_pilot_combos
