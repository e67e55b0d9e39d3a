"""Automatic cut-point search over the circuit DAG.

:func:`find_cut_specs` turns "hand me any circuit" into a list of
:class:`~repro.cutting.cut.CutSpec` consumable by
:func:`~repro.cutting.tree.partition_tree` — chains *and* trees, not just
bipartitions.  Two engines sit behind the one API:

* ``"exhaustive"`` — the reference: depth-first over every way of
  recursively bipartitioning the worklist pieces with up to ``max_cuts``
  total cuts, deduplicating partition states, scoring every feasible
  partition and returning the optimum.  Tractable for the paper-scale
  circuits; a hard state cap guards against misuse.
* ``"greedy"`` — the heuristic for wider circuits: per piece, candidate
  splits are *topological-prefix* cuts of the instruction list (any
  downward-closed prefix induces a valid bipartition whose cut points are
  the last-prefix instruction on each crossing wire), enumerated over the
  canonical order plus orders biased by a Kernighan–Lin balanced min-cut
  of the qubit-interaction graph
  (:meth:`~repro.circuits.dag.CircuitDag.balanced_qubit_bisection`).
  Prefixes are bucketed by cut count and scored lazily, one bucket at a
  time in ascending cut count, on the piece's DAG bitmasks — the
  downstream closure
  (:meth:`~repro.circuits.dag.CircuitDag.downstream_closure`) and the
  frontier checks :func:`~repro.cutting.fragments.bipartition` itself
  runs — so ranking builds no fragment and a caller that takes only the
  first few candidates never scores the costlier buckets; a candidate's
  halves are built only when the search takes it, in rank order.  A
  small beam of first splits is completed by best-first recursion with
  backtracking; each completion is scored from the worklist pieces it
  already holds (no :func:`~repro.cutting.tree.partition_tree` replay),
  the best is kept by the objective, and a hill-climb then shifts
  individual cut points along their wires (and tries dropping whole
  groups) while improvement lasts.

Objectives (``objective=``):

* ``"width"`` — CutQC-style: ``(total cuts, max fragment width, number of
  fragments)``, lexicographic.
* ``"cost"`` — the cost model this repo is uniquely placed to have:
  predicted reconstruction stddev (:func:`~repro.cutting.variance
  .tree_predicted_stddev_tv` on exact fragment data at the production
  per-variant budget) × total variant-shot cost
  (:func:`~repro.cutting.shots.allocate_tree_shots` executions — interior
  fragments pay ``6^{K_in} · 3^{K_out}``).  ``golden_discount=True``
  additionally prices in analytic golden-neglect savings
  (:func:`~repro.core.golden.find_tree_golden_bases_analytic` on the
  ideal path): a candidate whose cuts are golden runs fewer variants
  *and* fewer reconstruction rows, and the searcher sees both.

``topology="chain"`` restricts the search to linear trees (only the tail
piece is ever re-split) for :func:`~repro.core.pipeline.cut_and_run_chain`;
``topology="tree"`` (the default) keeps single-parent trees, and
``topology="dag"`` admits joint-prep candidates — the cost objective then
prices DAG partitions exactly like trees (the variance model and shot
allocator both understand multi-parent fragments).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from repro.circuits.circuit import Circuit
from repro.circuits.dag import CircuitDag
from repro.cutting.cut import CutPoint, CutSpec
from repro.cutting.fragments import _split_frontier
# The searcher deliberately reuses the worklist-bipartition internals of
# partition_tree (same package): every split it builds is exactly one
# _cut_piece step, so an emitted spec sequence replays identically, and the
# greedy scorer checks candidates with the same frontier and group-placement
# rules (_split_frontier, _carry_groups) before building any of them.
from repro.cutting.tree import (
    FragmentTree,
    _assemble,
    _carry_groups,
    _cut_piece,
    _Piece,
    _split_components,
    partition_tree,
)
from repro.exceptions import CutError

__all__ = ["CutSearchResult", "find_cut_specs", "search_cut_specs"]

#: exhaustive-engine guard rails: auto-selection threshold on the estimated
#: first-split combination count, and the hard cap on visited partition
#: states when the engine *is* chosen (misuse raises, it never spins).
_AUTO_EXHAUSTIVE_COMBOS = 800
_MAX_EXHAUSTIVE_STATES = 200_000

#: greedy-engine shape: first-split beam width, per-piece branching during
#: completion, and hill-climb round cap.
_BEAM_WIDTH = 8
_BRANCH_WIDTH = 6
_HILL_CLIMB_ROUNDS = 8


@dataclass
class CutSearchResult:
    """Everything one cut search produced (``find_cut_specs`` returns
    ``.specs``; benches and tests read the rest)."""

    #: the winning cut groups, in application order (original coordinates)
    specs: list[CutSpec]
    #: the fragment tree those specs induce
    tree: FragmentTree
    #: objective that was optimised ("width" or "cost")
    objective: str
    #: engine that produced the winner ("exhaustive" or "greedy")
    engine: str
    #: the winner's objective value — a lexicographic tuple for "width",
    #: stddev × executions for "cost"
    value: "tuple | float"
    #: number of feasible partitions scored
    evaluations: int
    #: search knobs and statistics (budget, cut caps, candidate counts)
    report: dict = field(default_factory=dict)


def find_cut_specs(
    circuit: Circuit,
    max_fragment_qubits: int,
    num_fragments: "int | None" = None,
    max_cuts: "int | None" = None,
    objective: str = "width",
    engine: str = "auto",
    topology: str = "tree",
    golden_discount: bool = False,
    shots: int = 1000,
    seed: "int | None" = None,
) -> list[CutSpec]:
    """Find cut groups splitting ``circuit`` into budget-fitting fragments.

    The returned list feeds :func:`~repro.cutting.tree.partition_tree`
    directly (and :func:`~repro.cutting.chain.partition_chain` when
    ``topology="chain"``).  Every fragment of the induced partition has at
    most ``max_fragment_qubits`` qubits; ``num_fragments`` pins the exact
    fragment count (default: whatever the objective prefers), ``max_cuts``
    caps the total cut count (default: ``3 · (F − 1)`` for the minimum
    feasible fragment count ``F``).  ``engine="auto"`` picks the
    exhaustive reference when the candidate space is small and the greedy
    heuristic otherwise.  Raises :class:`CutError` when no cut set fits.

    See the module docstring for the ``objective`` / ``golden_discount`` /
    ``topology`` semantics; :func:`search_cut_specs` returns the full
    :class:`CutSearchResult` when the objective value matters.
    """
    return search_cut_specs(
        circuit,
        max_fragment_qubits,
        num_fragments=num_fragments,
        max_cuts=max_cuts,
        objective=objective,
        engine=engine,
        topology=topology,
        golden_discount=golden_discount,
        shots=shots,
        seed=seed,
    ).specs


def search_cut_specs(
    circuit: Circuit,
    max_fragment_qubits: int,
    num_fragments: "int | None" = None,
    max_cuts: "int | None" = None,
    objective: str = "width",
    engine: str = "auto",
    topology: str = "tree",
    golden_discount: bool = False,
    shots: int = 1000,
    seed: "int | None" = None,
) -> CutSearchResult:
    """:func:`find_cut_specs` returning the full :class:`CutSearchResult`."""
    if objective not in ("width", "cost"):
        raise CutError(f'objective must be "width" or "cost", got {objective!r}')
    if engine not in ("auto", "exhaustive", "greedy"):
        raise CutError(
            f'engine must be "auto"/"exhaustive"/"greedy", got {engine!r}'
        )
    if topology not in ("tree", "chain", "dag"):
        raise CutError(
            f'topology must be "tree", "chain" or "dag", got {topology!r}'
        )
    if max_fragment_qubits < 1:
        raise CutError("max_fragment_qubits must be at least 1")
    if num_fragments is not None and num_fragments < 2:
        raise CutError("a cut circuit has at least two fragments")
    if shots <= 0:
        raise CutError("shots must be positive")
    if not len(circuit):
        raise CutError("cannot cut a circuit with no instructions")
    # wire cuts never split an instruction: one wider than the budget makes
    # every partition infeasible, however long the engines would look
    for index, inst in enumerate(circuit):
        if len(inst.qubits) > max_fragment_qubits:
            raise CutError(
                f"no cut set fits every fragment in <= {max_fragment_qubits} "
                f"qubits: instruction {index} ({inst.name}) acts on "
                f"{len(inst.qubits)} qubits"
            )

    min_fragments = num_fragments or max(
        2, -(-circuit.num_qubits // max_fragment_qubits)
    )
    if max_cuts is None:
        max_cuts = 3 * (min_fragments - 1)
    if max_cuts < min_fragments - 1:
        raise CutError(
            f"max_cuts={max_cuts} cannot produce {min_fragments} fragments "
            f"(each split spends at least one cut)"
        )

    ctx = _SearchContext(
        circuit=circuit,
        budget=max_fragment_qubits,
        num_fragments=num_fragments,
        max_cuts=max_cuts,
        objective=objective,
        topology=topology,
        golden_discount=golden_discount,
        shots=shots,
        seed=seed,
    )

    positions = len(CircuitDag(circuit).wire_cut_positions())
    first_split_combos = sum(
        math.comb(positions, k) for k in range(1, min(max_cuts, 3) + 1)
    )
    # the exhaustive engine's state count explodes with fragments and cuts
    small_shape = min_fragments <= 3 and max_cuts <= 4
    if engine == "auto":
        engine = (
            "exhaustive"
            if first_split_combos <= _AUTO_EXHAUSTIVE_COMBOS and small_shape
            else "greedy"
        )

    if engine == "exhaustive":
        best = _exhaustive(ctx)
    else:
        best = _greedy(ctx)
        if (
            best is None
            and small_shape
            and first_split_combos <= 25 * _AUTO_EXHAUSTIVE_COMBOS
        ):
            # rescue pass: the prefix heuristic found nothing but the
            # candidate space is small enough to settle it exactly.
            best = _exhaustive(ctx)
            if best is not None:
                engine = "exhaustive"

    if best is None:
        raise CutError(
            f"no cut set with <= {max_cuts} cuts fits every fragment in "
            f"<= {max_fragment_qubits} qubits"
            + (
                f" with exactly {num_fragments} fragments"
                if num_fragments is not None
                else ""
            )
        )
    value, specs, tree = best
    return CutSearchResult(
        specs=specs,
        tree=tree,
        objective=objective,
        engine=engine,
        value=value,
        evaluations=ctx.evaluations,
        report={
            "budget": max_fragment_qubits,
            "num_fragments": num_fragments,
            "max_cuts": max_cuts,
            "topology": topology,
            "golden_discount": golden_discount,
            "candidate_positions": positions,
            "first_split_combos": first_split_combos,
        },
    )


# ---------------------------------------------------------------------------
# shared search state
# ---------------------------------------------------------------------------


@dataclass
class _SearchContext:
    """Knobs plus evaluation memo shared by both engines."""

    circuit: Circuit
    budget: int
    num_fragments: "int | None"
    max_cuts: int
    objective: str
    topology: str
    golden_discount: bool
    shots: int
    seed: "int | None"
    evaluations: int = 0
    _memo: dict = field(default_factory=dict)

    def root_piece(self) -> _Piece:
        return _Piece(
            circuit=self.circuit,
            wire_orig=list(range(self.circuit.num_qubits)),
            inst_orig=list(range(len(self.circuit))),
            entering={},
            exiting={},
        )

    # -- feasibility -----------------------------------------------------
    def feasible_tree(self, tree: FragmentTree) -> bool:
        if any(f.num_qubits > self.budget for f in tree.fragments):
            return False
        if (
            self.num_fragments is not None
            and tree.num_fragments != self.num_fragments
        ):
            return False
        if tree.total_cuts > self.max_cuts:
            return False
        if self.topology == "chain" and not tree.is_chain:
            return False
        if self.topology == "tree" and not tree.is_tree:
            # partition_tree accepts DAG spec sets now; a tree-topology
            # search must still reject them (topology="dag" scores them)
            return False
        return True

    # -- scoring ---------------------------------------------------------
    def evaluate(
        self, specs: "list[CutSpec]", pieces: "list[_Piece] | None" = None
    ):
        """Score one candidate spec sequence.

        Returns ``(value, tree)``, or ``None`` when the specs do not induce
        a feasible partition.  ``pieces`` skips the partition replay when
        the caller already holds the worklist state the specs produced —
        the exhaustive engine's pieces, and each greedy completion's
        worklist after :func:`~repro.cutting.tree._split_components`, i.e.
        the pieces :func:`partition_tree` would assemble.  Results are
        memoised by spec sequence either way.
        """
        key = tuple(
            tuple((c.wire, c.gate_index) for c in s.cuts) for s in specs
        )
        if key in self._memo:
            return self._memo[key]
        try:
            tree = (
                _assemble(pieces, list(specs))
                if pieces is not None
                else partition_tree(self.circuit, specs)
            )
        except CutError:
            self._memo[key] = None
            return None
        if not self.feasible_tree(tree):
            self._memo[key] = None
            return None
        self.evaluations += 1
        if self.objective == "width":
            value = (
                tree.total_cuts,
                max(f.num_qubits for f in tree.fragments),
                tree.num_fragments,
            )
        else:
            value = _cost_objective(
                tree, self.shots, self.golden_discount
            )
        out = (value, list(specs), tree)
        self._memo[key] = out
        return out


def _cost_objective(
    tree: FragmentTree, shots: int, golden_discount: bool
) -> float:
    """Predicted stddev × total executions for one candidate tree.

    Exact fragment data is cheap on paper-scale fragments (one statevector
    body per node, variants derived from the cache), and evaluating the
    delta-method variance on it *at the production shot budget* prices the
    reconstruction error a finite-shot run of this tree would pay.
    """
    from repro.core.neglect import tree_reduced_variants
    from repro.cutting.execution import exact_tree_data
    from repro.cutting.shots import allocate_tree_shots
    from repro.cutting.variance import tree_predicted_stddev_tv

    golden_used: list = [None] * tree.num_groups
    if golden_discount:
        from repro.core.golden import find_tree_golden_bases_analytic

        _, selected = find_tree_golden_bases_analytic(tree)
        golden_used = [sel if sel else None for sel in selected]
    if any(golden_used):
        bases, variants = tree_reduced_variants(tree, golden_used)
    else:
        bases = variants = None
    data = exact_tree_data(tree, variants=variants)
    # exact records at a finite per-variant budget = the predicted noise of
    # the production run (shots_per_variant=0 would report exactly zero)
    data.shots_per_variant = shots
    sigma = tree_predicted_stddev_tv(data, bases=bases)
    counts = [len(r) for r in data.records]
    _, report = allocate_tree_shots(counts, shots_per_variant=shots)
    return float(sigma) * float(report["total_executions"])


def _split_piece(piece: _Piece, local_points, group: int):
    """Split one worklist piece at piece-local ``(wire, gate)`` points.

    Returns ``(orig_spec, [up_piece, down_piece])`` with the spec lifted to
    original-circuit coordinates (so the final sequence replays through
    :func:`partition_tree`), or raises :class:`CutError` when the points do
    not induce a valid tree-preserving bipartition.
    """
    orig_spec = CutSpec(
        tuple(
            CutPoint(piece.wire_orig[w], piece.inst_orig[g])
            for w, g in local_points
        )
    )
    return orig_spec, _cut_piece(piece, {group: orig_spec})


# ---------------------------------------------------------------------------
# exhaustive reference engine
# ---------------------------------------------------------------------------


def _exhaustive(ctx: _SearchContext):
    """Optimal search over recursive bipartitions (small circuits)."""
    import itertools

    best: "list | None" = [None]
    seen: set = set()

    def piece_splits(piece: _Piece, group: int, cut_cap: int):
        dag = CircuitDag(piece.circuit)
        positions = dag.wire_cut_positions()
        out = []
        for k in range(1, min(cut_cap, piece.circuit.num_qubits) + 1):
            for combo in itertools.combinations(positions, k):
                wires = [w for w, _ in combo]
                if len(set(wires)) != len(wires):
                    continue
                try:
                    out.append(_split_piece(piece, combo, group))
                except CutError:
                    continue
        return out

    def recurse(pieces: "list[_Piece]", specs: "list[CutSpec]", used: int):
        sig = frozenset(frozenset(p.inst_orig) for p in pieces)
        if sig in seen:
            return
        if len(seen) >= _MAX_EXHAUSTIVE_STATES:
            raise CutError(
                "exhaustive cut search exceeded its state cap "
                f"({_MAX_EXHAUSTIVE_STATES} partitions); use "
                'engine="greedy" for circuits this size'
            )
        seen.add(sig)
        n = len(pieces)
        over_budget = sum(
            1 for p in pieces if p.circuit.num_qubits > ctx.budget
        )
        if n >= 2 and not over_budget and (
            ctx.num_fragments is None or n == ctx.num_fragments
        ):
            scored = ctx.evaluate(specs, pieces)
            if scored is not None and (
                best[0] is None or scored[0] < best[0][0]
            ):
                best[0] = scored
        remaining = ctx.max_cuts - used
        if remaining <= 0:
            return
        if ctx.num_fragments is not None and n >= ctx.num_fragments:
            return
        # every over-budget piece (and every missing fragment) still costs
        # at least one cut
        if over_budget > remaining:
            return
        if (
            ctx.num_fragments is not None
            and ctx.num_fragments - n > remaining
        ):
            return
        indices = [n - 1] if ctx.topology == "chain" else range(n)
        for j in indices:
            for spec, halves in piece_splits(pieces[j], len(specs), remaining):
                recurse(
                    pieces[:j] + halves + pieces[j + 1 :],
                    specs + [spec],
                    used + spec.num_cuts,
                )

    recurse([ctx.root_piece()], [], 0)
    return best[0]


# ---------------------------------------------------------------------------
# greedy heuristic engine
# ---------------------------------------------------------------------------


def _biased_topological_order(
    circuit: Circuit, dag: CircuitDag, prefer: "set[int]"
) -> list[int]:
    """Kahn's algorithm listing gates confined to ``prefer`` qubits first.

    Prefix cuts of this order approximate the Kernighan–Lin qubit
    bisection: the preferred half's gates drain before anything touching
    the other half, so the crossing boundary sits near the min-cut.
    """
    import heapq

    indegree = {
        node: len(dag.predecessors(node)) for node in range(len(circuit))
    }

    def rank(node: int) -> tuple[int, int]:
        inside = all(q in prefer for q in circuit[node].qubits)
        return (0 if inside else 1, node)

    heap = [rank(n) for n, d in indegree.items() if d == 0]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        _, node = heapq.heappop(heap)
        order.append(node)
        for succ in dag.successors(node):
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(heap, rank(succ))
    return order


def _score_split(piece: _Piece, dag: CircuitDag, points, group: int):
    """What :func:`_split_piece` would make of ``points``, without building it.

    Runs the same frontier check :func:`~repro.cutting.fragments
    .bipartition` runs and the same earlier-group placement
    :func:`~repro.cutting.tree._cut_piece` runs, on ``dag``'s bitmasks.
    Returns ``(up_mask, (up_width, down_width))`` — the upstream half's
    piece-local instruction bitmask and both halves' widths — or ``None``
    exactly when :func:`_split_piece` would raise :class:`CutError`.
    """
    try:
        down, q_up, q_down = _split_frontier(dag, points)
        _carry_groups(piece, q_up, q_down, f"cut group {group}")
    except CutError:
        return None
    full = (1 << len(piece.circuit)) - 1
    return full & ~down, (len(q_up), len(q_down))


def _prefix_splits(ctx: _SearchContext, piece: _Piece, group: int):
    """Candidate splits of one piece from topological prefixes, best first.

    Any prefix of a topological instruction order is downward-closed, so
    it induces a candidate bipartition whose cut points are the last
    prefix instruction on each crossing wire; enumerating prefixes of a
    few well-chosen orders covers balanced and min-cut-shaped splits
    without combinatorial blowup.  Candidates rank by ``(cuts, max width,
    width imbalance, discovery order)``.  Since the cut count is known
    before scoring, the distinct point lists are bucketed by it and
    scored lazily: one bucket is scored on the piece's DAG bitmasks
    (:func:`_score_split`), sorted and yielded before the next bucket is
    touched, so a caller taking the first few candidates never scores the
    costlier buckets.  The ``(spec, halves)`` of each candidate is built
    only when the caller takes it.  A valid split's cut points are fixed
    by its upstream half, so distinct point lists never yield the same
    split twice.
    """
    circuit = piece.circuit
    num_qubits = circuit.num_qubits
    dag = CircuitDag(circuit)
    segments = [dag.wire_segments(w) for w in range(num_qubits)]

    orders = [list(range(len(circuit)))]
    if num_qubits >= 4:
        half_a, half_b = dag.balanced_qubit_bisection(seed=ctx.seed or 0)
        orders.append(_biased_topological_order(circuit, dag, half_a))
        orders.append(_biased_topological_order(circuit, dag, half_b))

    # orders share many prefixes; each distinct point list is kept once,
    # in discovery order, under its cut count
    tried: set = set()
    buckets: dict[int, list] = {}
    for order in orders:
        counts = [0] * num_qubits
        for node in order[:-1]:
            for wire in circuit[node].qubits:
                counts[wire] += 1
            # a prefix holds the first counts[w] gates of every wire w
            points = tuple(
                (wire, seg[c - 1])
                for wire, (seg, c) in enumerate(zip(segments, counts))
                if 0 < c < len(seg)
            )
            if not points or len(points) > ctx.max_cuts or points in tried:
                continue
            tried.add(points)
            buckets.setdefault(len(points), []).append(points)
    for cuts in sorted(buckets):
        ranked = []
        for found, points in enumerate(buckets[cuts]):
            scored = _score_split(piece, dag, points, group)
            if scored is not None:
                up, down = scored[1]
                ranked.append((max(up, down), abs(up - down), found, points))
        ranked.sort()
        for *_, points in ranked:
            yield _split_piece(piece, points, group)


def _complete_greedily(
    ctx: _SearchContext,
    pieces: "list[_Piece]",
    specs: "list[CutSpec]",
    used: int,
):
    """Best-first completion of a partial partition, with backtracking.

    Returns ``(specs, pieces)`` — the completed spec sequence and the
    worklist it left, exactly the pieces :func:`partition_tree` would
    build from those specs before its component split — or ``None``.
    """
    n = len(pieces)
    widths = [p.circuit.num_qubits for p in pieces]
    need = [j for j in range(n) if widths[j] > ctx.budget]
    if ctx.topology == "chain" and any(j != n - 1 for j in need):
        return None  # an interior chain piece can never be re-split
    if not need and ctx.num_fragments is not None and n < ctx.num_fragments:
        # budget satisfied but more fragments demanded: split the widest
        need = [n - 1 if ctx.topology == "chain" else widths.index(max(widths))]
    if not need:
        if ctx.num_fragments is not None and n != ctx.num_fragments:
            return None
        return list(specs), pieces
    remaining = ctx.max_cuts - used
    if remaining <= 0 or len(need) > remaining:
        return None
    if (
        ctx.num_fragments is not None
        and n >= ctx.num_fragments
    ):
        return None
    j = max(need, key=lambda i: widths[i])
    for spec, halves in islice(
        _prefix_splits(ctx, pieces[j], len(specs)), _BRANCH_WIDTH
    ):
        if spec.num_cuts > remaining:
            continue
        done = _complete_greedily(
            ctx,
            pieces[:j] + halves + pieces[j + 1 :],
            specs + [spec],
            used + spec.num_cuts,
        )
        if done is not None:
            return done
    return None


def _hill_climb(ctx: _SearchContext, scored):
    """First-improvement local search over cut-point positions.

    Moves: shift one cut point to the previous/next instruction on its
    wire (original coordinates), or drop one whole cut group.  Every move
    is re-validated through :func:`partition_tree`, so only
    feasibility-preserving improvements are accepted.
    """
    dag = CircuitDag(ctx.circuit)
    segments = [dag.wire_segments(w) for w in range(ctx.circuit.num_qubits)]

    def moves(specs: "list[CutSpec]"):
        for gi, spec in enumerate(specs):
            if len(specs) > 1:
                yield specs[:gi] + specs[gi + 1 :]
            for ci, cut in enumerate(spec.cuts):
                seg = segments[cut.wire]
                pos = seg.index(cut.gate_index)
                for step in (-1, 1):
                    if not 0 <= pos + step < len(seg) - 1:
                        continue  # stay off the last-on-wire position
                    shifted = CutPoint(cut.wire, seg[pos + step])
                    new_cuts = list(spec.cuts)
                    new_cuts[ci] = shifted
                    yield (
                        specs[:gi]
                        + [CutSpec(tuple(new_cuts))]
                        + specs[gi + 1 :]
                    )

    for _ in range(_HILL_CLIMB_ROUNDS):
        improved = False
        for candidate in moves(scored[1]):
            rescored = ctx.evaluate(candidate)
            if rescored is not None and rescored[0] < scored[0]:
                scored = rescored
                improved = True
                break
        if not improved:
            break
    return scored


def _greedy(ctx: _SearchContext):
    """Beam over first splits, greedy completion, objective pick, climb.

    Each completion is scored from the worklist it already holds (no
    :func:`partition_tree` replay) as soon as it is found; only the best
    is kept.
    """
    root = ctx.root_piece()
    best = None
    for spec, halves in islice(_prefix_splits(ctx, root, 0), _BEAM_WIDTH):
        completed = _complete_greedily(ctx, halves, [spec], spec.num_cuts)
        if completed is None:
            continue
        specs, pieces = completed
        scored = ctx.evaluate(
            specs, [c for p in pieces for c in _split_components(p)]
        )
        if scored is not None and (best is None or scored[0] < best[0]):
            best = scored
    if best is None:
        return None
    return _hill_climb(ctx, best)
