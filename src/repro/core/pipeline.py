"""One-call golden-cutting pipeline: cut, execute, (detect,) reconstruct.

There is one cutting engine, :func:`cut_and_run_tree`: the circuit is
partitioned into a fragment tree (or DAG), every fragment's variants run
from one shared cache pool, and the reconstruction contracts the fragment
network.  The paper's single wire cut is the 2-node tree;
:func:`cut_and_run` is a thin wrapper that runs it there and reports the
result in the pair vocabulary (:class:`CutRunResult`).  Both cover the
four operating modes of the reproduction:

* ``golden="off"`` — the standard CutQC-style baseline (paper ref [18]);
* ``golden="known"`` — the paper's experimental mode ("we assumed the golden
  cutting point was known a priori", §III-B) with the golden map supplied;
* ``golden="analytic"`` — find golden bases exactly from the measuring
  fragments' cached statevectors (cheap: 3^K axis rotations of one body);
* ``golden="detect"`` — the paper's §IV future-work mode: spend a pilot
  budget on the measuring fragments, run the hypothesis-test detector,
  then execute the reduced variant set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.backends.base import Backend
from repro.config import DEFAULT_ALPHA
from repro.core.costs import CostReport, cost_report
from repro.core.detection import detect_tree_golden_bases
from repro.core.neglect import normalize_golden_map, tree_reduced_variants
from repro.circuits.circuit import Circuit
from repro.cutting.cut import CutSpec, find_cuts
from repro.cutting.fragments import FragmentPair, bipartition
from repro.exceptions import CutError, ReconstructionError
from repro.utils.rng import as_generator, derive_rng
from repro.utils.timing import Stopwatch

__all__ = [
    "ChainRunResult",
    "CutRunResult",
    "TreeRunResult",
    "cut_and_run",
    "cut_and_run_chain",
    "cut_and_run_tree",
]

#: preference order when several bases are golden at one cut — X/Y save
#: downstream circuit executions, Z only saves upstream settings and terms.
_BASIS_PRIORITY = ("Y", "X", "Z")


def _check_diagonal(diagonal, size: int) -> np.ndarray:
    """A diagonal observable as a ``(size,)`` array, or a typed error."""
    diagonal = np.asarray(diagonal)
    if diagonal.shape != (size,):
        raise ReconstructionError(
            f"observable diagonal has shape {diagonal.shape}; the "
            f"reconstruction has {size} outcomes"
        )
    return diagonal


@dataclass
class TreeRunResult:
    """Everything produced by one :func:`cut_and_run_tree` invocation.

    ``ChainRunResult`` is an alias — a chain is a linear tree and
    :func:`cut_and_run_chain` runs through the same engine.
    """

    #: reconstructed output distribution — a dense little-endian vector, or
    #: a :class:`~repro.cutting.sparse.SparseDistribution` when ``prune=``
    #: was set on the run
    probabilities: np.ndarray
    #: the fragment tree used
    tree: object
    #: golden maps actually exploited, one per cut group (spec order)
    golden_used: list
    #: raw tree fragment measurement data
    data: object
    #: per-fragment variant counts and total executions
    costs: dict
    #: modelled device seconds
    device_seconds: float
    #: real seconds spent in classical reconstruction
    reconstruction_seconds: float
    #: per-group reconstruction basis pools (None = full {I,X,Y,Z} everywhere)
    bases: "list | None" = None
    #: pilot-detection metadata, one list of
    #: :class:`~repro.core.detection.GoldenDetectionResult` per cut group
    #: (empty unless golden="detect")
    detection: list = field(default_factory=list)
    #: accumulated L1 bound on the mass discarded by pruning (0.0 on the
    #: dense path — see :mod:`repro.cutting.sparse`)
    prune_bound: float = 0.0
    #: rigorous TV widening for basis rows graceful degradation demoted
    #: after permanent backend failures (0.0 on a healthy run — see
    #: :func:`~repro.cutting.resilience.degradation_tv_penalty`)
    degradation_bound: float = 0.0
    #: exhausted variants that were demoted, as ``(fragment, (inits,
    #: setting))`` pairs (empty on a healthy run)
    degraded: list = field(default_factory=list)

    @property
    def chain(self):
        """Alias of :attr:`tree` for chain-shaped runs."""
        return self.tree

    @property
    def total_executions(self) -> int:
        return self.costs["total_executions"]

    @property
    def pilot_executions(self) -> int:
        """Pilot shot bill of the detection sweep (0 without a pilot)."""
        return self.costs.get("pilot_executions", 0)

    def expectation(self, diagonal: np.ndarray) -> float:
        """Expectation of a diagonal observable under the reconstruction."""
        from repro.cutting.sparse import SparseDistribution

        diagonal = _check_diagonal(diagonal, 1 << len(self.tree.output_order()))
        if isinstance(self.probabilities, SparseDistribution):
            return float(
                np.dot(
                    self.probabilities.values,
                    diagonal[self.probabilities.indices],
                )
            )
        return float(np.dot(self.probabilities, diagonal))

    def variance(self) -> np.ndarray:
        """Delta-method shot-noise variance of each reconstructed entry."""
        from repro.cutting.variance import tree_reconstruction_variance

        return tree_reconstruction_variance(self.data, bases=self.bases)

    def predicted_stddev_tv(self) -> float:
        """Scalar shot-noise summary (see :mod:`repro.cutting.variance`)."""
        from repro.cutting.variance import tree_predicted_stddev_tv

        return tree_predicted_stddev_tv(self.data, bases=self.bases)

    def tv_bound(self) -> float:
        """Predicted TV error: shot noise + pruning loss + degradation.

        ``predicted_stddev_tv() + prune_bound + degradation_bound`` — the
        delta-method sampling stddev, the rigorous L1 bound on everything
        the ``prune=`` policy discarded (see :mod:`repro.cutting.sparse`),
        and the superoperator-norm penalty for basis rows graceful
        degradation demoted after permanent backend failures (see
        :mod:`repro.cutting.resilience`).  The variance model densifies
        intermediate factors, so this is a small-``n`` diagnostic; at 20+
        qubits report the structural bounds directly (with exact fragment
        data the sampling term is zero).
        """
        from repro.cutting.variance import tree_tv_bound

        return tree_tv_bound(
            self.data,
            bases=self.bases,
            prune_bound=self.prune_bound,
            degradation_bound=self.degradation_bound,
        )


@dataclass
class CutRunResult:
    """Everything produced by one :func:`cut_and_run` invocation.

    A view of the 2-node :class:`TreeRunResult` the single cut runs as,
    in the pair vocabulary: one golden map, one list of detection
    verdicts, one list of per-cut basis pools and the closed-form
    :class:`~repro.core.costs.CostReport`.
    """

    #: reconstructed output distribution (little-endian over the full register)
    probabilities: np.ndarray
    #: golden bases actually exploited, cut index → basis
    golden_used: dict[int, str]
    #: variant/term/shot accounting
    costs: CostReport
    #: modelled device seconds (fragment jobs + pilot, if any)
    device_seconds: float
    #: real seconds spent in classical reconstruction
    reconstruction_seconds: float
    #: the underlying 2-node tree run (fragment records, tree, bounds)
    tree_run: TreeRunResult = field(repr=False)
    #: the uncut circuit (bipartitioned on first access to :attr:`pair`)
    circuit: Circuit = field(repr=False)
    #: pilot-detection metadata (empty unless golden="detect")
    detection: list = field(default_factory=list)
    #: reconstruction basis pools actually used (None = full {I,X,Y,Z}^K)
    bases: "list[tuple[str, ...]] | None" = None

    @cached_property
    def pair(self) -> FragmentPair:
        """The bipartition used, in the pair layout."""
        return bipartition(self.circuit, self.tree_run.tree.specs[0])

    @property
    def total_executions(self) -> int:
        return self.costs.total_executions

    def expectation(self, diagonal: np.ndarray) -> float:
        """Expectation of a diagonal observable under the reconstruction."""
        diagonal = _check_diagonal(diagonal, len(self.probabilities))
        return float(np.dot(self.probabilities, diagonal))

    def variance(self) -> np.ndarray:
        """Delta-method shot-noise variance of each reconstructed entry."""
        return self.tree_run.variance()

    def predicted_stddev_tv(self) -> float:
        """Scalar shot-noise summary (see :mod:`repro.cutting.variance`)."""
        return self.tree_run.predicted_stddev_tv()


#: chains are linear trees; the chain result type is the tree result type
ChainRunResult = TreeRunResult


def _resolve_tree_specs(
    circuit: Circuit,
    specs,
    cuts,
    max_fragment_qubits: "int | None",
    num_fragments: "int | None",
    max_cuts: "int | None",
    search_objective: str,
    topology: str,
):
    """Normalise the multi-fragment entry points' cut arguments.

    ``cuts`` aliases ``specs``; a bare :class:`CutSpec` becomes a one-group
    list; ``None`` triggers the automatic searcher with the same default
    width budget as :func:`cut_and_run` (``ceil(n/2) + 1``).
    """
    if specs is not None and cuts is not None:
        raise CutError("pass the cut specs once: cuts= is an alias of specs=")
    if specs is None:
        specs = cuts
    if specs is None:
        from repro.cutting.search import find_cut_specs

        budget = (
            (circuit.num_qubits + 1) // 2 + 1
            if max_fragment_qubits is None
            else max_fragment_qubits
        )
        return find_cut_specs(
            circuit,
            budget,
            num_fragments=num_fragments,
            max_cuts=max_cuts,
            objective=search_objective,
            topology=topology,
        )
    if isinstance(specs, CutSpec):
        return [specs]
    return list(specs)


def cut_and_run_tree(
    circuit: Circuit,
    backend: Backend,
    specs=None,
    shots: int = 1000,
    golden: str = "off",
    golden_maps: "list | None" = None,
    postprocess: str = "clip",
    seed: "int | np.random.Generator | None" = None,
    alpha: float = DEFAULT_ALPHA,
    pilot_shots: int | None = None,
    exploit_all: bool = False,
    prune=None,
    dtype=np.float64,
    retry=None,
    on_exhausted: str = "raise",
    checkpoint=None,
    ledger=None,
    cuts=None,
    max_fragment_qubits: "int | None" = None,
    num_fragments: "int | None" = None,
    max_cuts: "int | None" = None,
    search_objective: str = "width",
    plan=None,
    executor: str = "serial",
    max_workers: "int | None" = None,
    runner=None,
    fragment_store=None,
    _tree=None,
) -> TreeRunResult:
    """Cut ``circuit`` into a fragment tree, run it, reconstruct.

    The one cutting engine (:func:`cut_and_run` runs the paper's single
    cut through it as the 2-node tree): ``specs`` lists one
    :class:`~repro.cutting.cut.CutSpec` per cut group (original-circuit
    coordinates, see :func:`repro.cutting.tree.partition_tree`; branched
    topologies welcome).  ``cuts`` is an alias for ``specs`` (matching
    :func:`cut_and_run`); leaving both ``None`` triggers automatic cut
    search (:func:`repro.cutting.search.find_cut_specs`) constrained by
    ``max_fragment_qubits`` (default ``ceil(n/2) + 1``), ``num_fragments``
    and ``max_cuts``, optimising ``search_objective`` (``"width"`` or
    ``"cost"``).  A bare :class:`~repro.cutting.cut.CutSpec` is accepted
    as a one-group tree.  Golden modes, per cut group:

    * ``"off"`` runs the full CutQC-style variant products;
    * ``"known"`` takes ``golden_maps`` — one
      :data:`~repro.core.neglect.GoldenMap` (or ``None``) per cut group —
      and neglects those bases group by group: each fragment then runs the
      reduced ``inits(entering group) × settings(flat exiting cuts)``
      product and the reconstruction drops the corresponding rows of each
      group's factors;
    * ``"analytic"`` finds each group's golden bases exactly with
      :func:`~repro.core.golden.find_tree_golden_bases_analytic` (a
      root-to-leaves BFS whose interior-fragment contexts honour the
      *parent* group's committed neglect), selected per group by the same
      policy as :func:`cut_and_run` (``exploit_all``);
    * ``"detect"`` spends ``pilot_shots`` per pilot variant (default
      ``max(100, shots // 4)``) on a sequential root-to-leaves detection
      sweep: each node with exiting cuts measures its spanning prep
      contexts × full flat settings, the hypothesis-test detector
      (:func:`~repro.core.detection.detect_tree_golden_bases`, level
      ``alpha`` per candidate) rules on each of the node's child groups,
      and the verdicts condition the children's contexts.  A branching
      node's single pilot serves all of its child groups; leaves have no
      exiting cuts and never run a pilot.

    One cache pool (:meth:`~repro.backends.base.Backend.make_tree_cache_pool`)
    serves the pilot sweep *and* the production run, so each fragment body
    is transpiled/simulated exactly once — an N-node tree costs N body
    transpiles no matter the mode.

    ``prune`` (a :class:`~repro.cutting.sparse.PrunePolicy`, e.g.
    ``threshold(1e-4)`` or ``top_k(256)``) switches the reconstruction to
    the sparse path: the result's ``probabilities`` is then a
    :class:`~repro.cutting.sparse.SparseDistribution` and ``prune_bound``
    carries the accumulated L1 bound on the discarded mass, so
    :meth:`TreeRunResult.tv_bound` = sampling stddev + prune bound.
    ``dtype=np.float32`` is the memory-halving fast path (probability
    records and contraction only — simulation and sampling stay exact, so
    RNG streams are unchanged); the float64 default is bit-identical to
    the pre-knob pipeline.

    ``specs`` may describe a fragment *DAG* — several groups entering one
    fragment (joint preparations) are legal and route through the same
    pipeline.  ``plan`` controls the reconstruction's contraction order
    (see :func:`~repro.cutting.reconstruction.reconstruct_tree_distribution`):
    ``None`` runs the fixed leaves-to-root plan on trees and searches a
    pairwise :class:`~repro.cutting.contraction.ContractionPlan`
    automatically on DAGs; a method string (``"auto"``/``"fixed"``/
    ``"greedy"``/``"dp"``) or an explicit plan overrides that choice.

    Resilience knobs (see :mod:`repro.cutting.resilience`):

    * ``retry`` — a :class:`~repro.cutting.resilience.RetryPolicy`.
      Transient backend faults are retried with backoff; the healthy path
      stays bit-identical to the retry-free run (same RNG streams, same
      counts).  Attempts land in ``ledger`` (an
      :class:`~repro.cutting.resilience.AttemptLedger`; one is created
      when omitted) and its summary in ``costs["retry"]``.
    * ``on_exhausted="degrade"`` — a permanently dead variant family does
      not abort the run: its basis rows are demoted out of the
      reconstruction pools (:func:`~repro.cutting.resilience
      .plan_degradation`), the result records the demotions and carries
      ``degradation_bound``, and :meth:`TreeRunResult.tv_bound` widens
      accordingly — a degraded answer is still a bounded answer.
      ``costs["reallocation"]`` reports the boosted per-variant budget
      that would keep total device time flat on a re-run.
    * ``checkpoint`` — a :class:`~repro.cutting.io.TreeCheckpoint`;
      completed fragments persist as they finish, and a resumed run
      splices them in (bit-identically) instead of re-executing.

    Execution-scaling knobs (see :mod:`repro.parallel`):

    * ``executor`` — ``"serial"`` (default, the historical in-process
      path), ``"thread"`` or ``"process"``.  Non-serial modes route the
      production run through :func:`~repro.parallel.executor
      .run_tree_fragments_parallel` with ``mode=executor`` and require
      ``backend`` to be a **zero-arg factory** (a backend class,
      module-level function or ``functools.partial`` — picklable for
      ``"process"``); pilot sweeps still run on one probe instance
      (they are sequential by construction).  ``checkpoint`` requires
      ``executor="serial"``.  ``max_workers`` caps the pool.
    * ``runner`` — a drop-in replacement for
      :func:`~repro.cutting.execution.run_tree_fragments` used for the
      pilot *and* (serial) production calls; this is how
      :class:`~repro.parallel.service.CutRunService` routes requests
      through its coalescer.
    * ``fragment_store`` — a :class:`~repro.cutting.fingerprint
      .FragmentStore`; the cache pool is drawn from the store's
      content-addressed warmed caches, so repeated runs over circuits
      sharing fragment bodies transpile each distinct body once per
      store, not once per call.
    """
    from repro.cutting.cache import TreeCachePool, TreeFragmentSimCache
    from repro.cutting.execution import run_tree_fragments
    from repro.cutting.reconstruction import reconstruct_tree_distribution
    from repro.cutting.shots import (
        allocate_tree_pilot_shots,
        allocate_tree_shots,
    )
    from repro.cutting.tree import partition_tree
    from repro.core.golden import find_tree_golden_bases_analytic

    rng = as_generator(seed)
    if executor not in ("serial", "thread", "process"):
        raise CutError(
            f'executor must be "serial"/"thread"/"process", got {executor!r}'
        )
    backend_factory = None
    if executor != "serial":
        if not callable(backend):
            raise CutError(
                f'executor="{executor}" needs a zero-arg backend factory, '
                f"got a {type(backend).__name__} instance"
            )
        if checkpoint is not None:
            raise CutError('checkpoint requires executor="serial"')
        backend_factory = backend
        backend = backend_factory()
    run = runner if runner is not None else run_tree_fragments
    if _tree is not None:
        tree = _tree
    else:
        specs = _resolve_tree_specs(
            circuit,
            specs,
            cuts,
            max_fragment_qubits,
            num_fragments,
            max_cuts,
            search_objective,
            topology="tree",
        )
        tree = partition_tree(circuit, specs)
    if fragment_store is not None:
        pool = fragment_store.pool_for(tree, backend, dtype)
    else:
        pool = backend.make_tree_cache_pool(tree, dtype=dtype)

    if retry is not None and ledger is None:
        from repro.cutting.resilience import AttemptLedger

        ledger = AttemptLedger()

    detection: list = []
    pilot_report: "dict | None" = None
    pilot_seconds = 0.0

    if golden == "off":
        golden_used = [None] * tree.num_groups
    elif golden == "known":
        if golden_maps is None:
            raise CutError('golden="known" requires golden_maps')
        if len(golden_maps) != tree.num_groups:
            raise CutError("need one golden map (or None) per cut group")
        golden_used = [
            dict(normalize_golden_map(tree.group_sizes[g], gm)) if gm else None
            for g, gm in enumerate(golden_maps)
        ]
    elif golden == "analytic":
        # The finder works on *ideal* states: reuse the backend's pool when
        # it is an ideal one, otherwise build a finder-only ideal pool (no
        # transpiles — the noisy production pool is untouched).
        if pool is not None and all(
            isinstance(c, TreeFragmentSimCache) for c in pool
        ):
            finder_pool = pool
        else:
            finder_pool = TreeCachePool(
                tree, [TreeFragmentSimCache(f) for f in tree.fragments]
            )
        _, selected = find_tree_golden_bases_analytic(
            tree,
            pool=finder_pool,
            select=lambda found: _select_golden(found, exploit_all),
        )
        golden_used = [sel if sel else None for sel in selected]
    elif golden == "detect":
        from repro.core.neglect import tree_pilot_combos

        pilot_counts = [0] * tree.num_fragments
        pilot: "int | None" = None
        golden_used = [None] * tree.num_groups
        detection = [[] for _ in range(tree.num_groups)]
        for i, frag in enumerate(tree.fragments):
            if not frag.num_meas:
                continue  # leaves have nothing to pilot
            # entering golden maps re-addressed in the node's flat prep
            # layout (joint-prep DAG nodes merge several groups' maps)
            gm_prev: dict = {}
            for h in frag.in_groups:
                gm = golden_used[h]
                if gm:
                    off = frag.prep_offset(h)
                    for k, v in gm.items():
                        gm_prev[off + k] = v
            combos = tree_pilot_combos(
                frag.num_prep,
                frag.num_meas,
                gm_prev or None,
            )
            pilot_counts[i] = len(combos)
            if pilot is None:
                # the sweep is sequential, so the per-variant pilot budget
                # is fixed before the root runs
                pilot, _ = allocate_tree_pilot_shots(
                    pilot_counts,
                    shots_per_variant=shots,
                    pilot_shots=pilot_shots,
                )
            pilot_variants: list = [None] * tree.num_fragments
            pilot_variants[i] = combos
            pilot_data = run(
                tree,
                backend,
                shots=pilot,
                variants=pilot_variants,
                seed=derive_rng(rng, 0x70 + i),
                pool=pool,
                retry=retry,
                ledger=ledger,
            )
            pilot_seconds += pilot_data.modeled_seconds
            # one pilot verdicts every child group of this node
            for g in frag.meas_groups:
                results = detect_tree_golden_bases(pilot_data, g, alpha=alpha)
                detection[g] = results
                found: dict[int, list[str]] = {
                    k: [] for k in range(tree.group_sizes[g])
                }
                for res in results:
                    if res.is_golden:
                        found[res.cut].append(res.basis)
                golden_used[g] = _select_golden(found, exploit_all) or None
        _, pilot_report = allocate_tree_pilot_shots(
            pilot_counts, shots_per_variant=shots, pilot_shots=pilot
        )
    else:
        raise CutError(
            'golden must be "off"/"known"/"analytic"/"detect" for trees, '
            f"got {golden!r}"
        )

    if any(golden_used):
        bases, variants = tree_reduced_variants(tree, golden_used)
    else:
        bases = None
        variants = None

    if backend_factory is not None:
        from repro.parallel.executor import run_tree_fragments_parallel

        data = run_tree_fragments_parallel(
            tree,
            backend_factory,
            shots,
            variants=variants,
            seed=derive_rng(rng, 0x53),
            max_workers=max_workers,
            mode=executor,
            dtype=dtype,
            retry=retry,
            ledger=ledger,
            on_exhausted=on_exhausted,
        )
    else:
        data = run(
            tree,
            backend,
            shots=shots,
            variants=variants,
            seed=derive_rng(rng, 0x53),
            pool=pool,
            dtype=dtype,
            retry=retry,
            ledger=ledger,
            on_exhausted=on_exhausted,
            checkpoint=checkpoint,
        )

    degraded_sites = list(data.metadata.get("degraded_sites", []))
    degradation_bound = 0.0
    demotions: dict = {}
    if degraded_sites:
        from repro.cutting.resilience import plan_degradation

        pools = (
            [list(group) for group in bases]
            if bases is not None
            else [[("I", "X", "Y", "Z")] * k for k in tree.group_sizes]
        )
        bases, demotions, degradation_bound = plan_degradation(
            tree, data.records, pools, degraded_sites
        )

    with Stopwatch() as sw:
        probs = reconstruct_tree_distribution(
            data,
            bases=bases,
            postprocess=postprocess,
            prune=prune,
            dtype=dtype,
            plan=plan,
        )

    counts = [len(r) for r in data.records]
    _, costs = allocate_tree_shots(counts, shots_per_variant=shots)
    if pilot_report is not None:
        costs = {**costs, **pilot_report}
    if degraded_sites:
        from repro.cutting.shots import reallocate_shots

        failed = [0] * tree.num_fragments
        for i, _ in degraded_sites:
            failed[i] += 1
        executed = [
            len(data.records[i]) + failed[i] for i in range(tree.num_fragments)
        ]
        _, realloc = reallocate_shots(executed, failed, shots)
        costs = {
            **costs,
            "degraded_variants": len(degraded_sites),
            "demoted_bases": {
                f"group{g}/cut{c}": list(letters)
                for (g, c), letters in sorted(demotions.items())
            },
            "reallocation": realloc,
        }
    if ledger is not None:
        costs = {**costs, "retry": ledger.summary()}
    return TreeRunResult(
        probabilities=probs,
        tree=tree,
        golden_used=golden_used,
        data=data,
        costs=costs,
        device_seconds=data.modeled_seconds + pilot_seconds,
        reconstruction_seconds=sw.elapsed,
        bases=bases,
        detection=detection,
        prune_bound=float(getattr(probs, "prune_bound", 0.0)),
        degradation_bound=degradation_bound,
        degraded=degraded_sites,
    )


def cut_and_run_chain(
    circuit: Circuit,
    backend: Backend,
    specs=None,
    shots: int = 1000,
    golden: str = "off",
    golden_maps: "list | None" = None,
    postprocess: str = "clip",
    seed: "int | np.random.Generator | None" = None,
    alpha: float = DEFAULT_ALPHA,
    pilot_shots: int | None = None,
    exploit_all: bool = False,
    prune=None,
    dtype=np.float64,
    retry=None,
    on_exhausted: str = "raise",
    checkpoint=None,
    ledger=None,
    cuts=None,
    max_fragment_qubits: "int | None" = None,
    num_fragments: "int | None" = None,
    max_cuts: "int | None" = None,
    search_objective: str = "width",
) -> TreeRunResult:
    """Cut ``circuit`` into a fragment chain, run it, reconstruct.

    Thin wrapper over :func:`cut_and_run_tree`: the specs are partitioned
    with :func:`~repro.cutting.chain.partition_chain` (which enforces the
    linear shape and points branched specs to ``partition_tree``) and the
    run proceeds on the single tree engine — on a chain the root-to-leaves
    BFS *is* the left-to-right sweep, per-fragment RNG streams included, so
    results are bit-identical to the pre-tree chain pipeline.  ``cuts`` /
    ``max_fragment_qubits`` / ``num_fragments`` / ``max_cuts`` /
    ``search_objective`` mirror :func:`cut_and_run_tree`'s auto mode, with
    the search constrained to linear topologies
    (``find_cut_specs(..., topology="chain")``).
    """
    from repro.cutting.chain import partition_chain
    from repro.cutting.execution import ChainFragmentData

    specs = _resolve_tree_specs(
        circuit,
        specs,
        cuts,
        max_fragment_qubits,
        num_fragments,
        max_cuts,
        search_objective,
        topology="chain",
    )
    chain = partition_chain(circuit, specs)
    res = cut_and_run_tree(
        circuit,
        backend,
        specs,
        shots=shots,
        golden=golden,
        golden_maps=golden_maps,
        postprocess=postprocess,
        seed=seed,
        alpha=alpha,
        pilot_shots=pilot_shots,
        exploit_all=exploit_all,
        prune=prune,
        dtype=dtype,
        retry=retry,
        on_exhausted=on_exhausted,
        checkpoint=checkpoint,
        ledger=ledger,
        _tree=chain,
    )
    res.data = ChainFragmentData._from_tree_data(res.data)
    return res


def _select_golden(
    found: dict[int, list[str]], exploit_all: bool
) -> dict[int, "str | tuple[str, ...]"]:
    """Choose which detected golden bases to exploit.

    Default (``exploit_all=False``) picks one basis per cut in the
    paper's spirit, preferring bases with downstream savings; with
    ``exploit_all=True`` every detected basis is neglected (multi-basis
    cuts shrink further: 4 → 2 or even 1 term).
    """
    out: dict[int, "str | tuple[str, ...]"] = {}
    for k, bases in found.items():
        if not bases:
            continue
        if exploit_all:
            out[k] = tuple(bases)
            continue
        for b in _BASIS_PRIORITY:
            if b in bases:
                out[k] = b
                break
    return out


def cut_and_run(
    circuit: Circuit,
    backend: Backend,
    cuts: CutSpec | None = None,
    shots: int = 1000,
    golden: str = "off",
    golden_map: "dict[int, str | tuple[str, ...]] | None" = None,
    max_fragment_qubits: int | None = None,
    postprocess: str = "clip",
    seed: "int | np.random.Generator | None" = None,
    alpha: float = DEFAULT_ALPHA,
    pilot_shots: int | None = None,
    exploit_all: bool = False,
    retry=None,
    ledger=None,
) -> CutRunResult:
    """Cut ``circuit`` once, run both fragments on ``backend``, reconstruct.

    Parameters mirror the paper's experimental knobs; see the module
    docstring for the ``golden`` modes.  ``cuts=None`` triggers automatic
    cut search constrained by ``max_fragment_qubits`` (default:
    ``ceil(n/2) + 1``, the paper's balanced-bipartition shape).  The cut
    runs as the 2-node tree through :func:`cut_and_run_tree` — one cache
    pool for pilot and production, the tree detector, the network
    contraction — with ``golden_map`` as the single cut group's map.
    ``retry`` / ``ledger`` enable the resilient execution path for both
    the pilot and production runs (see :mod:`repro.cutting.resilience`).
    """
    if cuts is None:
        budget = (
            (circuit.num_qubits + 1) // 2 + 1
            if max_fragment_qubits is None
            else max_fragment_qubits
        )
        cuts = find_cuts(circuit, budget)
    if golden == "known" and not golden_map:
        raise CutError('golden="known" requires golden_map')
    run = cut_and_run_tree(
        circuit,
        backend,
        [cuts],
        shots=shots,
        golden=golden,
        golden_maps=[golden_map] if golden == "known" else None,
        postprocess=postprocess,
        seed=seed,
        alpha=alpha,
        pilot_shots=pilot_shots,
        exploit_all=exploit_all,
        retry=retry,
        ledger=ledger,
    )
    golden_used = (
        dict(golden_map) if golden == "known" else dict(run.golden_used[0] or {})
    )
    return CutRunResult(
        probabilities=run.probabilities,
        golden_used=golden_used,
        costs=cost_report(cuts.num_cuts, golden_used, shots_per_variant=shots),
        device_seconds=run.device_seconds,
        reconstruction_seconds=run.reconstruction_seconds,
        tree_run=run,
        circuit=circuit,
        detection=run.detection[0] if run.detection else [],
        bases=run.bases[0] if run.bases is not None else None,
    )
