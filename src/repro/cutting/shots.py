"""Shot-budget allocation across fragment variants.

The paper uses a *uniform* allocation — every (sub)circuit variant gets the
same number of shots (e.g. 1000 per variant in Figs. 4–5) — so that is the
default.  Two refinements are provided for the ablation benches:

* ``proportional``: weight upstream settings equally but give downstream
  variants a share proportional to the number of reconstruction rows that
  consume them (variants feeding more rows earn more shots);
* ``fixed_total``: divide a global budget evenly, rounding down.
"""

from __future__ import annotations

from typing import Sequence

from repro.exceptions import CutError

__all__ = [
    "allocate_chain_pilot_shots",
    "allocate_chain_shots",
    "allocate_shots",
    "allocate_tree_pilot_shots",
    "allocate_tree_shots",
    "reallocate_shots",
]

#: default pilot sizing (matches ``cut_and_run``'s detect mode): a quarter
#: of the production per-variant budget, but never fewer than this floor.
PILOT_FRACTION = 0.25
PILOT_FLOOR = 100


def allocate_shots(
    num_upstream: int,
    num_downstream: int,
    shots_per_variant: int | None = None,
    total_shots: int | None = None,
    scheme: str = "uniform",
    inits: "Sequence[tuple[str, ...]] | None" = None,
) -> tuple[int, dict]:
    """Return ``(shots_per_variant, report)`` for the requested scheme.

    Exactly one of ``shots_per_variant`` and ``total_shots`` must be given.
    The report dictionary summarises the resulting budget (used by the
    benchmark tables: total executions is the paper's 4.5e5 vs 3.0e5 claim).

    ``scheme="proportional"`` divides ``total_shots`` by reconstruction-row
    fan-in: every upstream setting feeds the same ``2^K`` rows and is
    weighted equally, while a downstream preparation variant earns a share
    proportional to the number of rows consuming it — ``2^{#Z±}``, because
    the ``Z±`` eigenstates serve both the ``I`` and ``Z`` rows of their cut
    whereas ``X±``/``Y±`` serve only their own basis row.  ``inits`` names
    the downstream preparation tuples (e.g. a golden-reduced pool); when
    omitted the counts must be the full ``3^K`` / ``6^K`` pools.  The
    returned scalar is the *smallest* per-variant allocation; the exact
    per-variant split is in ``report["upstream_shots"]`` /
    ``report["downstream_shots"]``.
    """
    n_var = num_upstream + num_downstream
    if n_var <= 0:
        raise CutError("no variants to allocate shots to")
    if (shots_per_variant is None) == (total_shots is None):
        raise CutError("specify exactly one of shots_per_variant / total_shots")
    if scheme not in ("uniform", "fixed_total", "proportional"):
        raise CutError(f"unknown allocation scheme {scheme!r}")

    if scheme == "proportional":
        return _allocate_proportional(
            num_upstream, num_downstream, shots_per_variant, total_shots, inits
        )

    if shots_per_variant is None:
        per = total_shots // n_var
        if per <= 0:
            raise CutError(
                f"total budget {total_shots} too small for {n_var} variants"
            )
    else:
        per = shots_per_variant
        if per <= 0:
            raise CutError("shots_per_variant must be positive")

    report = {
        "scheme": scheme,
        "num_upstream": num_upstream,
        "num_downstream": num_downstream,
        "shots_per_variant": per,
        "total_executions": per * n_var,
    }
    return per, report


def _largest_remainder(weights: "list[float]", total: int) -> list[int]:
    """Apportion ``total`` integer shots by weight, conserving the sum."""
    scale = sum(weights)
    raw = [total * w / scale for w in weights]
    alloc = [int(x) for x in raw]
    leftover = total - sum(alloc)
    by_fraction = sorted(
        range(len(raw)), key=lambda i: (alloc[i] - raw[i], i)
    )
    for i in by_fraction[:leftover]:
        alloc[i] += 1
    return alloc


def _allocate_proportional(
    num_upstream: int,
    num_downstream: int,
    shots_per_variant: "int | None",
    total_shots: "int | None",
    inits: "Sequence[tuple[str, ...]] | None",
) -> tuple[int, dict]:
    """The row-fan-in weighted split documented on :func:`allocate_shots`."""
    if total_shots is None:
        raise CutError(
            "proportional allocation divides a global budget; pass "
            "total_shots, not shots_per_variant"
        )
    if inits is None:
        num_cuts = 0
        while 3**num_cuts < num_upstream:
            num_cuts += 1
        if 3**num_cuts != num_upstream or 6**num_cuts != num_downstream:
            raise CutError(
                "proportional allocation needs the downstream preparation "
                "tuples (inits=) when the variant counts are not the full "
                "3^K / 6^K pools"
            )
        from repro.cutting.variants import downstream_init_tuples

        inits = downstream_init_tuples(num_cuts)
    else:
        inits = [tuple(i) for i in inits]
        if len(inits) != num_downstream:
            raise CutError(
                f"got {len(inits)} preparation tuples for {num_downstream} "
                "downstream variants"
            )
        num_cuts = len(inits[0]) if inits else 0
    # each setting feeds all 2^K rows; a preparation feeds 2 rows (I and Z)
    # per Z± entry and 1 row (its own basis) per X±/Y± entry.
    up_weight = float(2**num_cuts)
    down_weights = [
        float(2 ** sum(1 for code in init if code.startswith("Z")))
        for init in inits
    ]
    alloc = _largest_remainder(
        [up_weight] * num_upstream + down_weights, total_shots
    )
    if min(alloc) <= 0:
        raise CutError(
            f"total budget {total_shots} too small to give every variant a "
            "positive proportional share"
        )
    upstream_shots = alloc[:num_upstream]
    downstream_shots = dict(zip(inits, alloc[num_upstream:]))
    report = {
        "scheme": "proportional",
        "num_upstream": num_upstream,
        "num_downstream": num_downstream,
        "shots_per_variant": min(alloc),
        "upstream_shots": upstream_shots,
        "downstream_shots": downstream_shots,
        "total_executions": sum(alloc),
    }
    return min(alloc), report


def allocate_tree_shots(
    variants_per_fragment: Sequence[int],
    shots_per_variant: int | None = None,
    total_shots: int | None = None,
    scheme: str = "uniform",
) -> tuple[int, dict]:
    """Shot budget for a fragment tree: ``(shots_per_variant, report)``.

    The tree generalisation of :func:`allocate_shots` —
    ``variants_per_fragment[i]`` counts fragment ``i``'s ``(inits, setting)``
    combos (interior fragments pay the ``6^{K_in} · 3^{K_out}`` product over
    their entering group and flat exiting cuts, which is why neglecting
    bases per cut group matters more as trees grow).  The report carries the
    per-fragment breakdown for cost tables.  Chains are linear trees;
    :func:`allocate_chain_shots` is an alias.
    """
    counts = [int(c) for c in variants_per_fragment]
    if len(counts) < 2:
        raise CutError("a fragment tree has at least two fragments")
    if any(c <= 0 for c in counts):
        raise CutError("every tree fragment needs at least one variant")
    if scheme == "proportional":
        raise CutError(
            "the proportional scheme weighs one bipartition's "
            "upstream/downstream pools; tree allocation is per-variant "
            "uniform (see allocate_shots)"
        )
    per, report = allocate_shots(
        counts[0],
        sum(counts[1:]),
        shots_per_variant=shots_per_variant,
        total_shots=total_shots,
        scheme=scheme,
    )
    report = {
        "scheme": report["scheme"],
        "variants_per_fragment": counts,
        "num_variants": sum(counts),
        "shots_per_variant": per,
        "total_executions": per * sum(counts),
    }
    return per, report


def allocate_tree_pilot_shots(
    pilot_variants_per_fragment: Sequence[int],
    shots_per_variant: int,
    pilot_shots: int | None = None,
) -> tuple[int, dict]:
    """Pilot budget for tree golden detection: ``(pilot_shots, report)``.

    ``pilot_variants_per_fragment[i]`` counts the *pilot* combos fragment
    ``i`` runs during the detection sweep — zero for fragments the sweep
    skips (always the leaves, which have no exiting cuts and therefore
    nothing to test).  ``pilot_shots=None`` derives the paper-mode default
    from the production per-variant budget:
    ``max(PILOT_FLOOR, shots_per_variant · PILOT_FRACTION)``.  The report
    feeds the pipeline's cost accounting, which keeps pilot executions
    separate from production ones.  Chains are linear trees;
    :func:`allocate_chain_pilot_shots` is an alias.
    """
    counts = [int(c) for c in pilot_variants_per_fragment]
    if len(counts) < 2:
        raise CutError("a fragment tree has at least two fragments")
    if any(c < 0 for c in counts):
        raise CutError("pilot variant counts cannot be negative")
    if sum(counts) == 0:
        raise CutError("no pilot variants to allocate shots to")
    if pilot_shots is None:
        if shots_per_variant <= 0:
            raise CutError("shots_per_variant must be positive")
        pilot_shots = max(PILOT_FLOOR, int(shots_per_variant * PILOT_FRACTION))
    if pilot_shots <= 0:
        raise CutError("pilot_shots must be positive")
    report = {
        "pilot_shots_per_variant": pilot_shots,
        "pilot_variants_per_fragment": counts,
        "pilot_num_variants": sum(counts),
        "pilot_executions": pilot_shots * sum(counts),
    }
    return pilot_shots, report


def reallocate_shots(
    variants_per_fragment: Sequence[int],
    failed_per_fragment: Sequence[int],
    shots_per_variant: int,
) -> tuple[int, dict]:
    """Fold dead variant families' shot budget back into the survivors.

    When graceful degradation retires variants, the shots they would have
    consumed are not free capacity to waste: redistributing the *original
    total budget* evenly over the surviving variants gives each survivor
    ``total // survivors`` shots.  Returns ``(boosted_shots_per_variant,
    report)``; the pipeline surfaces the report so a re-run (or a serving
    layer topping up live) knows the boosted budget that keeps total device
    time flat.
    """
    totals = [int(c) for c in variants_per_fragment]
    failed = [int(f) for f in failed_per_fragment]
    if len(totals) != len(failed):
        raise CutError("variant and failure counts must align per fragment")
    if shots_per_variant <= 0:
        raise CutError("shots_per_variant must be positive")
    if any(f < 0 or f > c for f, c in zip(failed, totals)):
        raise CutError("failed variant counts must be within [0, variants]")
    survivors_per_fragment = [c - f for c, f in zip(totals, failed)]
    if any(s <= 0 for s in survivors_per_fragment):
        raise CutError(
            "a fragment lost every variant; reallocation cannot recover it"
        )
    survivors = sum(survivors_per_fragment)
    budget = shots_per_variant * sum(totals)
    per = budget // survivors
    report = {
        "shots_per_variant": per,
        "original_shots_per_variant": shots_per_variant,
        "survivors": survivors,
        "failed": sum(failed),
        "total_budget": budget,
        "boost_factor": per / shots_per_variant,
    }
    return per, report


#: Chains are linear trees; the chain names remain as aliases of the single
#: tree implementation.
allocate_chain_shots = allocate_tree_shots
allocate_chain_pilot_shots = allocate_tree_pilot_shots
