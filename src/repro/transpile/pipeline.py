"""The full transpilation pipeline used by the fake-hardware backend.

Order of passes::

    cancel adjacent inverses      (cheap cleanup)
    decompose to {rz, sx, x, cx}  (multi-qubit rules + ZSX)
    route on the coupling map     (SWAP insertion; SWAPs re-lowered to CX)
    merge single-qubit runs       (final 1q compaction)

The output satisfies: every gate is in :data:`HARDWARE_BASIS` and every 2q
gate acts on a coupled pair.  ``transpile`` returns the physical circuit and
the final logical→physical layout for result un-permutation.

``barrier`` instructions are preserved end to end and act as optimisation
fences: no merging or cancellation crosses one.  Fragment variant circuits
exploit this — the tomography rotations / preparation gates are fenced off
from the fragment body, so one transpiled body is shared verbatim by every
variant (the invariant behind
:class:`repro.cutting.noisy_cache.NoisyTreeFragmentSimCache`).
"""

from __future__ import annotations

from repro.circuits.circuit import Circuit
from repro.transpile.basis import HARDWARE_BASIS, decompose_to_basis
from repro.transpile.coupling import CouplingMap
from repro.transpile.passes import cancel_adjacent_inverses, merge_single_qubit_runs
from repro.transpile.routing import route_circuit

__all__ = ["transpile"]


def transpile(
    circuit: Circuit,
    coupling: CouplingMap | None = None,
    optimize: bool = True,
) -> tuple[Circuit, list[int]]:
    """Lower ``circuit`` to native gates and (optionally) a coupling map.

    Returns ``(physical_circuit, final_layout)``; with ``coupling=None`` the
    layout is the identity and only basis translation happens.
    """
    qc = cancel_adjacent_inverses(circuit) if optimize else circuit
    qc = decompose_to_basis(qc)
    if coupling is None:
        layout = list(range(qc.num_qubits))
    else:
        qc, layout = route_circuit(qc, coupling)
        # routing introduces `swap` gates -> lower them again
        qc = decompose_to_basis(qc)
    if optimize:
        qc = merge_single_qubit_runs(qc)
        qc = cancel_adjacent_inverses(qc)
    assert all(
        inst.name in HARDWARE_BASIS or inst.name == "barrier" for inst in qc
    ), "transpile produced non-native gates"
    return qc, layout
