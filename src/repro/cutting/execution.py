"""Executing fragment variants and organising their measurement records.

:func:`run_tree_fragments` submits every ``(inits, setting)`` variant of
every fragment of a tree or DAG (the paper's single cut is the 2-node
tree, chains the one-child case) to a backend and returns a
:class:`TreeFragmentData` holding, per fragment and variant, the *joint
empirical distribution* split into (output bits, cut bits).  Submission
goes through :meth:`repro.backends.base.Backend.run_tree_variants`, so
backends with an exact simulation engine serve every variant from the
per-node cache pool instead of re-simulating each circuit: the ideal
backend from :class:`~repro.cutting.cache.TreeFragmentSimCache`, the noisy
fake-hardware backend from
:class:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache`.  An
``N``-node tree therefore costs exactly ``N`` body
transpiles/simulations.

:func:`exact_tree_data` computes the same records in the infinite-shot
limit directly from the ideal cache pool — used by exactness tests, the
analytic golden-cut finder and the cut searcher's cost objective.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.backends.base import Backend
from repro.exceptions import CutError

__all__ = [
    "ChainFragmentData",
    "TreeFragmentData",
    "exact_chain_data",
    "exact_tree_data",
    "run_chain_fragments",
    "run_tree_fragments",
]


@functools.lru_cache(maxsize=256)
def _record_layout(
    out_local: tuple[int, ...], cut_local: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, int]]:
    """Transpose order and record shape of one fragment's ``A[b_out, b_cut]``.

    A little-endian flat vector reshaped to ``(2,)*n`` has qubit ``q`` on
    axis ``n-1-q``; the record's C order puts the top output bit first and
    the lowest cut bit last.
    """
    n = len(out_local) + len(cut_local)
    axes = tuple(n - 1 - q for q in reversed(out_local)) + tuple(
        n - 1 - q for q in reversed(cut_local)
    )
    return axes, (1 << len(out_local), 1 << len(cut_local))


def _split_joint_probs(
    probs: np.ndarray,
    out_local: Sequence[int],
    cut_local: Sequence[int],
    dtype=np.float64,
) -> np.ndarray:
    """Rearrange a full fragment distribution into ``A[b_out, b_cut]``.

    ``b_cut`` is little-endian in the cut index; an empty ``cut_local``
    yields a single column (pure-output fragments at the chain end).
    ``dtype`` is the record precision (float64 default — bit-identical to
    the historical records; float32 is the reconstruction fast path).  The
    record is one transposing copy of ``probs``: every entry moves, none is
    summed.
    """
    axes, shape = _record_layout(tuple(out_local), tuple(cut_local))
    dims = (2,) * len(axes)
    out = np.empty(shape, dtype=dtype)
    np.copyto(out.reshape(dims), probs.reshape(dims).transpose(axes))
    return out


@dataclass
class TreeFragmentData:
    """Measurement records of every variant of every tree fragment.

    Attributes
    ----------
    tree:
        The :class:`~repro.cutting.tree.FragmentTree` (or
        :class:`~repro.cutting.chain.FragmentChain`, a linear tree) the
        data belongs to.
    records:
        One dict per fragment: ``(inits, setting) → A[b_out, b_cut]`` of
        shape ``(2^{n_out}, 2^{K})`` with ``K`` the fragment's *flat*
        exiting cut count (the union of its child groups' wires; leaves'
        records have one column).  The root's keys carry an empty init
        tuple, leaves an empty setting tuple.
    shots_per_variant:
        Shot budget each variant was run with (0 for exact data).
    modeled_seconds:
        Total device-model wall time charged by the backend.
    """

    tree: object
    records: list[dict[tuple[tuple[str, ...], tuple[str, ...]], np.ndarray]]
    shots_per_variant: int
    modeled_seconds: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def chain(self):
        """Alias of :attr:`tree` for chain-shaped data."""
        return self.tree

    @property
    def num_variants(self) -> int:
        return sum(len(r) for r in self.records)

    @property
    def total_shots(self) -> int:
        return self.shots_per_variant * self.num_variants

    def fragment_variants(
        self, index: int
    ) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
        return list(self.records[index])


class ChainFragmentData(TreeFragmentData):
    """Chain-flavoured constructor for :class:`TreeFragmentData`.

    A chain is a linear tree; this subclass only keeps the historical
    ``chain=`` keyword (and ``isinstance`` checks on the chain entry
    points' results) working.
    """

    def __init__(
        self,
        chain,
        records,
        shots_per_variant,
        modeled_seconds: float = 0.0,
        metadata: "dict | None" = None,
    ) -> None:
        super().__init__(
            tree=chain,
            records=records,
            shots_per_variant=shots_per_variant,
            modeled_seconds=modeled_seconds,
            metadata=metadata if metadata is not None else {},
        )

    @classmethod
    def _from_tree_data(cls, data: TreeFragmentData) -> "ChainFragmentData":
        """Re-badge a tree result produced by a chain entry point."""
        return cls(
            chain=data.tree,
            records=data.records,
            shots_per_variant=data.shots_per_variant,
            modeled_seconds=data.modeled_seconds,
            metadata=data.metadata,
        )


def _tree_variant_lists(tree, variants):
    """Normalise the per-fragment variant lists (default: full pools).

    ``variants[i] = None`` marks fragment ``i`` as *skipped* — it is not
    executed and its record dict stays empty.  Partial passes are what
    pilot detection runs: a group's verdict only needs its source
    fragment's measurements, so the sweep submits one fragment at a time
    and leaf fragments (no exiting cuts) never run at all.  An explicitly
    empty list is still an error: it would mean a fragment that *should*
    run has nothing to run.
    """
    from repro.cutting.variants import tree_variant_tuples

    if variants is None:
        variants = [
            tree_variant_tuples(tree, i) for i in range(tree.num_fragments)
        ]
    if len(variants) != tree.num_fragments:
        raise CutError("need one variant list per tree fragment")
    out = []
    for i, combos in enumerate(variants):
        if combos is None:
            out.append(None)
            continue
        combos = [(tuple(a), tuple(s)) for a, s in combos]
        if not combos:
            raise CutError(f"fragment {i} has an empty variant set")
        out.append(combos)
    if not any(c for c in out):
        raise CutError("every tree fragment is skipped; nothing to run")
    return out


#: chains are linear trees; the historical name remains for its importers
_chain_variant_lists = _tree_variant_lists


def run_tree_fragments(
    tree,
    backend: Backend,
    shots: int,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    pool=None,
    dtype=np.float64,
    retry=None,
    ledger=None,
    on_exhausted: str = "raise",
    checkpoint=None,
) -> TreeFragmentData:
    """Execute every tree fragment's variants on ``backend``.

    Fragment ``i``'s combos
    (default: the full ``6^{K_in} · 3^{K_out}`` product over its entering
    group and flat exiting cuts; golden pipelines pass reduced lists) are
    submitted through
    :meth:`~repro.backends.base.Backend.run_tree_variants`, so backends
    with an exact engine serve them from the per-fragment cache ``pool[i]``
    (built by :meth:`~repro.backends.base.Backend.make_tree_cache_pool`)
    instead of re-simulating the body per variant.  Chains run through
    this exact code path (per-fragment RNG streams included), so
    :func:`run_chain_fragments` results are bit-identical to what they
    were before the tree refactor.  ``dtype`` sets the record precision
    (float64 default — bit-identical; float32 halves record memory for
    the sparse/fast reconstruction path and never changes the sampling
    law, which draws before the cast).

    Resilience knobs:

    ``retry``
        A :class:`~repro.cutting.resilience.RetryPolicy`.  The healthy
        path stays one batched call per fragment with the exact streams
        the retry-free call spawns (bit-identical counts); transient
        faults replay only the failing variants with backoff, logged to
        ``ledger``.
    ``on_exhausted``
        ``"raise"`` (default) propagates
        :class:`~repro.exceptions.RetryExhaustedError`; ``"degrade"``
        records exhausted variants in metadata ``degraded_sites`` as
        ``(fragment, combo)`` pairs and leaves them out of the records —
        the pipeline demotes their basis rows and widens the bound.
    ``checkpoint``
        A :class:`~repro.cutting.io.TreeCheckpoint`; completed fragments
        are persisted as they finish and skipped (records loaded, RNG
        stream still burned) on resume, so an aborted run never re-executes
        finished fragments.
    """
    from repro.utils.rng import as_generator, derive_rng

    variants = _tree_variant_lists(tree, variants)
    if on_exhausted not in ("raise", "degrade"):
        raise CutError(f"on_exhausted must be 'raise' or 'degrade', got {on_exhausted!r}")
    if on_exhausted == "degrade" and retry is None:
        raise CutError("on_exhausted='degrade' requires a retry policy")
    engine = None
    if retry is not None:
        from repro.cutting.resilience import RetryEngine

        engine = RetryEngine(retry, ledger=ledger)
        if pool is None:
            pool = backend.make_tree_cache_pool(tree, dtype=dtype)
    rng = as_generator(seed)
    records: list[dict] = []
    degraded: list[tuple[int, tuple]] = []
    t0 = backend.clock.now
    for i, combos in enumerate(variants):
        # always burn fragment i's stream so skips/resumes never shift
        # later fragments' RNG streams
        frag_rng = derive_rng(rng, 0x60 + i)
        if combos is None:  # skipped fragment (partial/pilot pass)
            records.append({})
            continue
        frag = tree.fragments[i]
        cache = pool[i] if pool is not None else None
        if checkpoint is not None:
            stored = checkpoint.load_fragment(i, combos, dtype=dtype)
            if stored is not None:
                rec, dead = stored
                records.append(rec)
                degraded.extend((i, combo) for combo in dead)
                continue
        if engine is None:
            results = backend.run_tree_variants(
                tree, i, combos, shots=shots, seed=frag_rng, cache=cache
            )
            rec = {
                combo: _split_joint_probs(
                    res.probabilities(), frag.out_local, frag.cut_local, dtype
                )
                for combo, res in zip(combos, results)
            }
            dead = []
        else:
            from repro.utils.rng import spawn_seed_sequences

            children = spawn_seed_sequences(frag_rng, len(combos))
            sites = [("tree", i, a, s) for a, s in combos]

            def batch_call(streams, i=i, combos=combos, cache=cache):
                return backend.run_tree_variants(
                    tree, i, combos, shots=shots, seed=streams, cache=cache
                )

            def single_call(j, stream, i=i, combos=combos, cache=cache):
                return backend.run_tree_variants(
                    tree, i, [combos[j]], shots=shots, seed=[stream], cache=cache
                )[0]

            results, dead_idx = engine.run_batch(
                sites,
                children,
                batch_call,
                single_call,
                expected_shots=shots,
                expected_qubits=frag.num_qubits,
                clock=backend.clock,
                breaker_key=i,
                on_exhausted=on_exhausted,
            )
            rec = {
                combo: _split_joint_probs(
                    res.probabilities(), frag.out_local, frag.cut_local, dtype
                )
                for combo, res in zip(combos, results)
                if res is not None
            }
            dead = [combos[j] for j in dead_idx]
            degraded.extend((i, combo) for combo in dead)
        records.append(rec)
        if checkpoint is not None:
            checkpoint.save_fragment(i, rec, dead)
    seconds = backend.clock.now - t0

    metadata = {
        "backend": getattr(backend, "name", "backend"),
        "variants_per_fragment": [
            0 if c is None else len(c) for c in variants
        ],
    }
    if degraded:
        metadata["degraded_sites"] = degraded
    if engine is not None:
        metadata["retry"] = engine.ledger.summary()
    return TreeFragmentData(
        tree=tree,
        records=records,
        shots_per_variant=shots,
        modeled_seconds=seconds,
        metadata=metadata,
    )


def run_chain_fragments(
    chain,
    backend: Backend,
    shots: int,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    seed: "int | np.random.Generator | None" = None,
    pool=None,
    dtype=np.float64,
    retry=None,
    ledger=None,
    on_exhausted: str = "raise",
    checkpoint=None,
) -> ChainFragmentData:
    """Execute every chain fragment's variants (chains are linear trees).

    Same engine, records, RNG streams and resilience knobs as
    :func:`run_tree_fragments`; only the result's historical
    :class:`ChainFragmentData` type is kept.
    """
    return ChainFragmentData._from_tree_data(
        run_tree_fragments(
            chain,
            backend,
            shots,
            variants=variants,
            seed=seed,
            pool=pool,
            dtype=dtype,
            retry=retry,
            ledger=ledger,
            on_exhausted=on_exhausted,
            checkpoint=checkpoint,
        )
    )


def exact_tree_data(
    tree,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    pool=None,
    dtype=np.float64,
) -> TreeFragmentData:
    """Infinite-shot tree fragment data from the shared (ideal) cache pool.

    ``pool`` must hold :class:`~repro.cutting.cache.TreeFragmentSimCache`
    instances (e.g. from :meth:`IdealBackend.make_tree_cache_pool`) — exact
    data is an ideal-simulation notion, so a noisy backend's pool is
    rejected rather than silently served.  ``dtype`` sets the record
    precision when this call builds the pool itself (a supplied pool keeps
    its own dtype).
    """
    from repro.cutting.cache import TreeCachePool, TreeFragmentSimCache

    variants = _tree_variant_lists(tree, variants)
    if pool is None:
        pool = TreeCachePool(
            tree,
            [TreeFragmentSimCache(f, dtype=dtype) for f in tree.fragments],
        )
    elif not all(isinstance(c, TreeFragmentSimCache) for c in pool):
        raise CutError(
            "exact_tree_data needs ideal TreeFragmentSimCache caches; "
            "got a pool of a different flavour (noisy pools serve "
            "run_tree_fragments, not exact data)"
        )
    elif any(
        c.fragment is not f for c, f in zip(pool, tree.fragments)
    ):
        raise CutError(
            "cache pool was built for a different tree; build one with "
            "make_tree_cache_pool(tree) for this tree"
        )
    records: list[dict] = []
    for i, combos in enumerate(variants):
        if combos is None:  # skipped fragment (partial/pilot pass)
            records.append({})
            continue
        cache = pool[i]
        records.append(
            {combo: cache.joint(*combo) for combo in combos}
        )
    return TreeFragmentData(
        tree=tree,
        records=records,
        shots_per_variant=0,
        modeled_seconds=0.0,
        metadata={"backend": "exact"},
    )


def exact_chain_data(
    chain,
    variants: "Sequence[Sequence[tuple]] | None" = None,
    pool=None,
    dtype=np.float64,
) -> ChainFragmentData:
    """Infinite-shot chain fragment data (chains are linear trees)."""
    return ChainFragmentData._from_tree_data(
        exact_tree_data(chain, variants=variants, pool=pool, dtype=dtype)
    )
