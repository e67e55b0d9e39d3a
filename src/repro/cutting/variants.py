"""Measurement and preparation circuit variants for wire cutting.

Per cut wire the protocol needs (paper §II):

* **upstream**: measure the cut qubit in each Pauli basis.  ``I`` and ``Z``
  share the computational measurement, so the physical settings are
  ``{X, Y, Z}`` — realised by appending ``H`` (for X), ``S† H`` (for Y) or
  nothing (for Z) before the terminal measurement;
* **downstream**: initialise the entering qubit in each eigenstate of each
  basis.  ``I`` and ``Z`` share eigenstates ``{|0⟩, |1⟩}``, so the physical
  preparations are the six states ``Z+ Z− X+ X− Y+ Y−``, realised by the
  prefix gates listed in :data:`PREPARATION_STATES`.

Variants are labelled by tuples over the cuts (cut k → k-th tuple entry):
settings by basis letters, preparations by ``"<basis><sign>"`` codes.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from repro.circuits.circuit import Circuit
from repro.circuits.gates import Gate
from repro.circuits.instruction import Instruction
from repro.exceptions import CutError


def _fence(num_qubits: int) -> Instruction:
    """Full-width barrier separating a fragment body from its variant gates.

    Simulators skip barriers, so ideal results are untouched; the transpile
    pipeline keeps them as optimisation fences, so the physical circuit of
    any variant is exactly ``transpile(body)`` plus the lowered variant
    gates.  That factorisation is what
    :class:`repro.cutting.noisy_cache.NoisyTreeFragmentSimCache` relies on to
    serve every noisy variant from one transpiled, once-evolved body — and
    it also mirrors hardware reality: tomography rotations and preparation
    pulses are separately calibrated operations, not part of the body's
    optimisation scope.
    """
    return Instruction(Gate("barrier"), tuple(range(num_qubits)))

__all__ = [
    "MEASUREMENT_SETTINGS",
    "PREPARATION_STATES",
    "upstream_setting_tuples",
    "downstream_init_tuples",
    "chain_variant",
    "chain_variant_tuples",
    "tree_variant",
    "tree_variant_tuples",
    "preparations_for_bases",
]

#: Physical upstream measurement settings per cut.
MEASUREMENT_SETTINGS: tuple[str, ...] = ("X", "Y", "Z")

#: Preparation-state code -> gate sequence building it from |0⟩.
#: (Applied in list order: e.g. Y− is X then H then S: S·H·X|0⟩ = (|0⟩−i|1⟩)/√2.)
PREPARATION_STATES: dict[str, tuple[str, ...]] = {
    "Z+": (),
    "Z-": ("x",),
    "X+": ("h",),
    "X-": ("x", "h"),
    "Y+": ("h", "s"),
    "Y-": ("x", "h", "s"),
}

#: Which preparation codes each Pauli basis needs downstream.
_BASIS_PREPS: dict[str, tuple[str, ...]] = {
    "I": ("Z+", "Z-"),
    "Z": ("Z+", "Z-"),
    "X": ("X+", "X-"),
    "Y": ("Y+", "Y-"),
}


def upstream_setting_tuples(
    num_cuts: int, allowed: Sequence[Sequence[str]] | None = None
) -> list[tuple[str, ...]]:
    """All physical measurement-setting tuples (default: {X,Y,Z}^K).

    ``allowed[k]`` restricts the settings of cut ``k`` (golden cuts drop
    their neglected basis — see :mod:`repro.core.neglect`).
    """
    pools = (
        [MEASUREMENT_SETTINGS] * num_cuts
        if allowed is None
        else [tuple(a) for a in allowed]
    )
    for k, pool in enumerate(pools):
        bad = set(pool) - set(MEASUREMENT_SETTINGS)
        if bad:
            raise CutError(f"invalid measurement settings {bad} for cut {k}")
        if not pool:
            raise CutError(f"cut {k} has an empty measurement-setting pool")
    return list(itertools.product(*pools))


def preparations_for_bases(bases: Sequence[str]) -> tuple[str, ...]:
    """Distinct preparation codes needed to cover the given Pauli bases."""
    out: list[str] = []
    for b in bases:
        for code in _BASIS_PREPS[b]:
            if code not in out:
                out.append(code)
    return tuple(out)


def downstream_init_tuples(
    num_cuts: int, allowed_bases: Sequence[Sequence[str]] | None = None
) -> list[tuple[str, ...]]:
    """All preparation-state tuples (default: 6^K).

    ``allowed_bases[k]`` lists the Pauli bases cut ``k`` participates in;
    the preparation pool is the union of their eigenstates (so dropping
    basis Y removes ``Y±`` — 6 states → 4 — while dropping Z removes
    nothing when I remains, matching the cost model in
    :mod:`repro.core.costs`).
    """
    if allowed_bases is None:
        allowed_bases = [("I", "X", "Y", "Z")] * num_cuts
    pools = [preparations_for_bases(b) for b in allowed_bases]
    for k, pool in enumerate(pools):
        if not pool:
            raise CutError(f"cut {k} has an empty preparation pool")
    return list(itertools.product(*pools))


def tree_variant_tuples(
    tree,
    index: int,
    allowed_prep_bases: "Sequence[Sequence[str]] | None" = None,
    allowed_settings: "Sequence[Sequence[str]] | None" = None,
) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    """All ``(inits, setting)`` combos of one tree (or chain) fragment.

    The root has an empty init side, leaves an empty setting side; interior
    fragments take the full product (``6^{K_prev} · 3^{K}`` by default,
    with ``K`` the node's *flat* exiting cut count — the union of its child
    groups' wires — and reduced pools via the ``allowed_*`` arguments
    exactly as in :func:`downstream_init_tuples` /
    :func:`upstream_setting_tuples`, in flat cut order).
    """
    frag = tree.fragments[index]
    inits = (
        downstream_init_tuples(frag.num_prep, allowed_prep_bases)
        if frag.num_prep
        else [()]
    )
    settings = (
        upstream_setting_tuples(frag.num_meas, allowed_settings)
        if frag.num_meas
        else [()]
    )
    return [(i, s) for i in inits for s in settings]


def tree_variant(
    tree, index: int, inits: Sequence[str], setting: Sequence[str]
) -> Circuit:
    """One tree (or chain) fragment with preparation prefix and measurement
    suffix.

    Structure: preparation gates on the entering cut wires, a fence, the
    fragment body, a fence, basis-change gates on the exiting cut wires (in
    the node's flat cut order, spanning every child group); either side
    collapses away at the root / leaves.  The fences keep the body a
    standalone transpile unit, which is what lets the noisy tree cache
    serve every combined variant from one transpiled body.
    """
    frag = tree.fragments[index]
    if len(inits) != frag.num_prep:
        raise CutError("init tuple length != number of entering cuts")
    if len(setting) != frag.num_meas:
        raise CutError("setting tuple length != number of exiting cuts")
    label = f"{','.join(inits)}|{','.join(setting)}"
    qc = Circuit(frag.num_qubits, name=f"{frag.circuit.name}[{label}]")
    for k, code in enumerate(inits):
        try:
            gates = PREPARATION_STATES[code]
        except KeyError:
            raise CutError(f"invalid preparation code {code!r}") from None
        q = frag.prep_local[k]
        for g in gates:
            qc.add_gate(g, (q,))
    if inits:
        qc.append(_fence(frag.num_qubits))
    for inst in frag.circuit:
        qc.append(inst)
    if setting:
        qc.append(_fence(frag.num_qubits))
    for k, basis in enumerate(setting):
        q = frag.cut_local[k]
        if basis == "X":
            qc.h(q)
        elif basis == "Y":
            qc.sdg(q).h(q)
        elif basis != "Z":
            raise CutError(f"invalid measurement basis {basis!r}")
    return qc


#: Chains are linear trees; the chain names remain as aliases of the single
#: tree implementation.
chain_variant = tree_variant
chain_variant_tuples = tree_variant_tuples
