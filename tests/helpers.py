"""Shared test helpers (imported as ``from tests.helpers import ...``)."""

from __future__ import annotations

import os
import signal

import numpy as np

from repro.backends import IdealBackend
from repro.circuits import Circuit, random_circuit
from repro.cutting import CutPoint, CutSpec
from repro.utils.rng import as_generator


def phase_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> bool:
    """True iff matrices/vectors agree up to a global phase."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        return False
    k = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    if abs(b[k]) < 1e-12:
        return bool(np.allclose(a, b, atol=tol))
    ph = a[k] / b[k]
    return bool(abs(abs(ph) - 1.0) < tol and np.allclose(a, ph * b, atol=tol))


def two_block_circuit(
    n_total: int,
    up_qubits: list[int],
    down_qubits: list[int],
    depth: int = 3,
    seed=0,
    real_upstream: bool = False,
):
    """Compose U1 on ``up_qubits`` then U2 on ``down_qubits``.

    Returns ``(circuit, cut_spec)`` cutting every wire shared by the two
    blocks at the upstream boundary.
    """
    from repro.circuits.random import random_real_circuit

    r = as_generator(seed)
    gen = random_real_circuit if real_upstream else random_circuit
    qc = Circuit(n_total, name="two_block")
    qc = qc.compose(gen(len(up_qubits), depth, seed=r), qubits=up_qubits)
    shared = [q for q in up_qubits if q in down_qubits]
    for w in shared:  # anchor shared wires upstream
        if not any(w in inst.qubits for inst in qc):
            qc.ry(float(r.uniform(0, 6.28)), w)
    n_up = len(qc)
    qc = qc.compose(random_circuit(len(down_qubits), depth, seed=r), qubits=down_qubits)
    for w in shared:  # guarantee downstream usage of every shared wire
        if not any(w in inst.qubits for inst in qc.instructions[n_up:]):
            other = next(q for q in down_qubits if q != w)
            qc.cx(w, other)
    cuts = []
    for w in shared:
        boundary = max(i for i in range(n_up) if w in qc[i].qubits)
        cuts.append(CutPoint(w, boundary))
    return qc, CutSpec(tuple(cuts))


def pair_tree(qc, spec):
    """The 2-node fragment tree of one cut spec (the paper's bipartition)."""
    from repro.cutting import partition_tree

    return partition_tree(qc, [spec])


def exact_pair_probs(qc, spec, golden=None, **kwargs):
    """Raw exact reconstruction of ``qc`` cut once by ``spec``.

    ``golden`` (a golden map for the single cut group) runs the reduced
    variant plan and reconstructs from the reduced basis pools.
    """
    from repro.core.neglect import tree_reduced_variants
    from repro.cutting import exact_tree_data, reconstruct_tree_distribution

    tree = pair_tree(qc, spec)
    bases = variants = None
    if golden:
        bases, variants = tree_reduced_variants(tree, [golden])
    return reconstruct_tree_distribution(
        exact_tree_data(tree, variants=variants),
        bases=bases,
        postprocess="raw",
        **kwargs,
    )


def root_pilot_data(tree, shots=0, backend=None, seed=0, settings=None):
    """Records of the measuring root only (the rest is skipped).

    Exact when ``shots == 0``; otherwise sampled on ``backend``.  This is
    the data the golden finder and the detector read for the root's
    child groups.
    """
    from repro.cutting import exact_tree_data, run_tree_fragments
    from repro.cutting.variants import upstream_setting_tuples

    K = tree.fragments[0].num_meas
    if settings is None:
        settings = upstream_setting_tuples(K)
    variants = [[((), tuple(s)) for s in settings]]
    variants += [None] * (tree.num_fragments - 1)
    if shots:
        return run_tree_fragments(
            tree, backend, shots=shots, variants=variants, seed=seed
        )
    return exact_tree_data(tree, variants=variants)


def root_golden_bases(tree) -> dict:
    """Analytically golden bases per cut of the root's first cut group."""
    from repro.core.golden import find_tree_golden_bases_analytic

    found, _ = find_tree_golden_bases_analytic(tree)
    return found[0]


def backend_killing_its_worker(parent_pid: int) -> IdealBackend:
    """An ``IdealBackend`` factory that SIGKILLs any process other than
    ``parent_pid`` calling it: a process-pool worker dying mid-task (bind
    the pid with ``functools.partial`` so the factory pickles)."""
    if os.getpid() != parent_pid:
        os.kill(os.getpid(), signal.SIGKILL)
    return IdealBackend()
