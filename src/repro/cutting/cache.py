"""Shared-prefix fragment simulation cache.

Every measurement variant of a fragment is the *same* circuit followed by
terminal single-qubit basis rotations on its exiting cut wires, and every
preparation variant is the same circuit preceded by single-qubit state
preparations on its entering cut wires.  Simulating each of the
``6^{K_in} · 3^{K_out}`` variants from scratch therefore repeats the
expensive body simulation exponentially many times.
:class:`TreeFragmentSimCache` removes that redundancy:

* the body is simulated **once**, batched over the ``2^{K_in}``
  computational initialisations of the entering cut wires (one batched
  simulation, see :func:`repro.sim.statevector.apply_circuit_to_tensor`);
* each measurement setting is the cached column bank with per-cut ``H`` /
  ``H·S†`` rotations applied to the exiting cut axes — cheap axis
  rotations, memoised per setting or stacked for a whole setting pool;
* every preparation tuple is a linear combination of the cached response
  columns, one GEMV (or one GEMM for a batch) away.

:class:`TreeCachePool` holds one cache per fragment of a tree or DAG (the
paper's single cut is the 2-node tree).  The pool is consumed by
:func:`repro.cutting.execution.exact_tree_data`, the ideal backend's
:meth:`~repro.backends.ideal.IdealBackend.run_tree_variants` fast path,
:func:`repro.parallel.executor.run_tree_fragments_parallel`, and the
analytic golden-cut finder.  After :meth:`TreeCachePool.warm` (or eager
use) the caches are read-only and therefore safe to share across worker
threads.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from repro.circuits.gates import gate_matrix
from repro.config import COMPLEX_DTYPE
from repro.cutting.variants import PREPARATION_STATES
from repro.exceptions import CutError
from repro.sim.statevector import apply_circuit_to_tensor
from repro.linalg.tensor import apply_matrix_to_axes, flat_from_tensor

__all__ = [
    "ChainCachePool",
    "ChainFragmentSimCache",
    "PREPARATION_AMPLITUDES",
    "TreeCachePool",
    "TreeFragmentSimCache",
]


def _prep_amplitudes() -> dict[str, np.ndarray]:
    """Preparation-state code -> amplitudes in the computational basis.

    Derived from the *same* gate sequences the physical circuits use
    (:data:`repro.cutting.variants.PREPARATION_STATES`), so the cached
    linear-response path cannot drift from the circuit path — the
    downstream response is linear in the state, so relative phases between
    basis columns matter.
    """
    out: dict[str, np.ndarray] = {}
    for code, gates in PREPARATION_STATES.items():
        v = np.array([1.0, 0.0], dtype=COMPLEX_DTYPE)
        for g in gates:
            v = gate_matrix(g) @ v
        v.setflags(write=False)
        out[code] = v
    return out


PREPARATION_AMPLITUDES: dict[str, np.ndarray] = _prep_amplitudes()

#: Measurement basis -> terminal rotation matrix (None = computational),
#: matching the gate sequences appended by ``tree_variant`` (S† then H
#: for Y), built from the gate registry rather than re-stated literals.
MEASUREMENT_ROTATIONS: dict[str, "np.ndarray | None"] = {
    "X": gate_matrix("h"),
    "Y": gate_matrix("h") @ gate_matrix("sdg"),
    "Z": None,
}
for _m in MEASUREMENT_ROTATIONS.values():
    if _m is not None:
        _m.setflags(write=False)


@lru_cache(maxsize=4096)
def _prep_coefficients(inits: tuple[str, ...]) -> np.ndarray:
    """Expansion of a preparation product state over the ``2^K`` basis
    columns (entry ``j``: cut ``k`` in computational state bit ``k`` of
    ``j``); memoised and read-only — every fragment with the same entering
    codes shares it."""
    js = np.arange(1 << len(inits))
    c = np.ones(js.size, dtype=COMPLEX_DTYPE)
    for k, code in enumerate(inits):
        try:
            amp = PREPARATION_AMPLITUDES[code]
        except KeyError:
            raise CutError(f"invalid preparation code {code!r}") from None
        c *= amp[(js >> k) & 1]
    c.setflags(write=False)
    return c


class TreeFragmentSimCache:
    """Lazy per-tree-fragment cache of ideal body simulations.

    One fragment may have *both* a preparation side (its entering cut
    groups) and a measurement side (the union of its exiting cut groups'
    wires — one group on a chain interior, several at a tree branching
    node; the flat ``cut_local`` layout of
    :class:`~repro.cutting.tree.TreeFragment` makes the distinction
    invisible here).  The two techniques compose because they touch
    different ends of the same linear map:

    * the body is simulated **once**, batched over the ``2^{K_prev}``
      computational initialisations of the entering cut wires (amplitude
      response columns);
    * each measurement setting rotates the cut axes of that whole cached
      column bank — memoised per
      setting, or produced for a whole setting *pool* in one stacked
      tensor contraction by :meth:`warm_rotations`;
    * any preparation tuple is a linear combination of the rotated columns,
      one GEMV (or GEMM per batch) away, *before* squaring — amplitudes mix
      linearly, probabilities do not.

    Cost: ``6^{K_prev} · 3^{K}`` full variant simulations collapse to one
    batched body simulation plus ``3^{K}`` cheap axis rotations.

    ``dtype`` is the precision of the *probability outputs* (the amplitude
    simulation always runs in :data:`~repro.config.COMPLEX_DTYPE`): the
    float64 default serves bit-identical results to the historical cache;
    float32 halves the memory of every served distribution and record for
    the reconstruction fast path (pinned at ≤ 1e-6 by the test suite).
    """

    __slots__ = (
        "fragment",
        "dtype",
        "_columns_box",
        "_rotated",
        "_probs",
        "_joint",
        "_axes",
    )

    def __init__(self, fragment, dtype=np.float64) -> None:
        self.fragment = fragment
        self.dtype = np.dtype(dtype)
        #: one-slot shared box for the response columns — a box, not a
        #: plain attribute, so rebound clones see a body simulation that
        #: happens after the rebind (the box is shared, its content mutates)
        self._columns_box: list = [None]
        #: setting -> rotated amplitude bank, shape ``(2,)*n + (2^{K_prev},)``
        self._rotated: dict[tuple[str, ...], np.ndarray] = {}
        self._probs: dict[tuple, np.ndarray] = {}
        self._joint: dict[tuple, np.ndarray] = {}
        #: transpose order mapping a probability tensor onto (b_out, b_cut)
        self._axes = tuple(reversed(fragment.out_local)) + tuple(
            reversed(fragment.cut_local)
        )

    @property
    def _columns(self) -> "np.ndarray | None":
        return self._columns_box[0]

    @_columns.setter
    def _columns(self, value) -> None:
        self._columns_box[0] = value

    # ------------------------------------------------------------------
    def _response_columns(self) -> np.ndarray:
        """Body output amplitudes per entering-cut initialisation.

        Shape ``(2,)*n + (2^{K_prev},)``: batch column ``j`` is the final
        state when entering cut ``k`` starts in computational state bit
        ``k`` of ``j`` (a single batched body simulation; ``K_prev = 0``
        degenerates to one plain body run).
        """
        if self._columns is None:
            frag = self.fragment
            n, B = frag.num_qubits, 1 << frag.num_prep
            js = np.arange(B)
            init = np.zeros((2,) * n + (B,), dtype=COMPLEX_DTYPE)
            pos = {q: k for k, q in enumerate(frag.prep_local)}
            coords = tuple(
                ((js >> pos[q]) & 1) if q in pos else np.zeros(B, dtype=np.int64)
                for q in range(n)
            )
            init[coords + (js,)] = 1.0
            cols = apply_circuit_to_tensor(init, frag.circuit)
            cols.setflags(write=False)
            self._columns = cols
        return self._columns

    def _rotated_columns(self, setting: tuple[str, ...]) -> np.ndarray:
        """The response bank with one setting's terminal rotations applied."""
        out = self._rotated.get(setting)
        if out is not None:
            return out
        if len(setting) != self.fragment.num_meas:
            raise CutError("setting tuple length != number of exiting cuts")
        t = self._response_columns()
        for k, basis in enumerate(setting):
            try:
                rot = MEASUREMENT_ROTATIONS[basis]
            except KeyError:
                raise CutError(f"invalid measurement basis {basis!r}") from None
            if rot is not None:
                t = apply_matrix_to_axes(t, rot, (self.fragment.cut_local[k],))
        t.setflags(write=False)
        self._rotated[setting] = t
        return t

    def _prep_coefficients(self, inits: tuple[str, ...]) -> np.ndarray:
        """Expansion of a preparation product state over the basis columns."""
        if len(inits) != self.fragment.num_prep:
            raise CutError("init tuple length != number of entering cuts")
        return _prep_coefficients(tuple(inits))

    # ------------------------------------------------------------------
    def _probs_tensor(
        self, inits: tuple[str, ...], setting: tuple[str, ...]
    ) -> np.ndarray:
        rot = self._rotated_columns(setting)
        # one GEMV over the batch axis (what tensordot would run, without
        # its per-call axis bookkeeping)
        psi = np.dot(
            rot.reshape(-1, rot.shape[-1]), self._prep_coefficients(inits)
        ).reshape(rot.shape[:-1])
        # astype is a no-op on the default float64 path (copy=False)
        return (np.square(psi.real) + np.square(psi.imag)).astype(
            self.dtype, copy=False
        )

    def probabilities(
        self, inits: Sequence[str], setting: Sequence[str]
    ) -> np.ndarray:
        """Full little-endian distribution of one ``(inits, setting)`` variant."""
        key = (tuple(inits), tuple(setting))
        out = self._probs.get(key)
        if out is None:
            out = flat_from_tensor(self._probs_tensor(*key))
            out.setflags(write=False)
            self._probs[key] = out
        return out

    def joint(self, inits: Sequence[str], setting: Sequence[str]) -> np.ndarray:
        """Joint ``A[b_out, b_cut]`` record (``b_cut`` dimension 1 at chain end)."""
        key = (tuple(inits), tuple(setting))
        out = self._joint.get(key)
        if out is None:
            frag = self.fragment
            p = self._probs_tensor(*key)
            out = np.ascontiguousarray(
                p.transpose(self._axes).reshape(
                    1 << frag.n_out, 1 << frag.num_meas
                )
            )
            out.setflags(write=False)
            self._joint[key] = out
        return out

    def warm_rotations(
        self, settings: Iterable[Sequence[str]]
    ) -> "TreeFragmentSimCache":
        """Batched upstream rotation application (ROADMAP lever).

        Rather than rotating the cached column bank once per setting
        (``3^K`` separate passes over the full tensor), every requested
        setting's rotated bank is produced by **one stacked tensor op per
        cut**: cut ``k`` contributes a ``(P_k, 2, 2)`` stack of its
        distinct rotation matrices, contracted against the bank's cut axis
        so a new ``P_k`` batch axis accumulates.  After ``K`` contractions
        the tensor holds the banks of the whole per-cut-letter *product*;
        the requested settings are sliced out and memoised.  The win grows
        with ``K`` (each per-setting pass re-reads the whole bank;
        benchmarked at K = 4 in ``benchmarks/bench_fragments.py``).
        """
        missing = sorted(
            {tuple(s) for s in settings} - set(self._rotated)
        )
        if not missing:
            return self
        Kn = self.fragment.num_meas
        for s in missing:
            if len(s) != Kn:
                raise CutError("setting tuple length != number of exiting cuts")
        pools = [sorted({s[k] for s in missing}) for k in range(Kn)]
        product_size = 1
        for pool in pools:
            product_size *= len(pool)
        # the stacked pass computes the whole per-cut-letter product; for a
        # sparse request (product much larger than asked) the per-setting
        # loop is cheaper and holds no oversized transient
        if len(missing) == 1 or Kn == 0 or product_size > 2 * len(missing):
            for s in missing:
                self._rotated_columns(s)
            return self
        eye = np.eye(2, dtype=COMPLEX_DTYPE)
        t = self._response_columns()
        for k, pool in enumerate(pools):
            mats = []
            for basis in pool:
                try:
                    rot = MEASUREMENT_ROTATIONS[basis]
                except KeyError:
                    raise CutError(
                        f"invalid measurement basis {basis!r}"
                    ) from None
                mats.append(eye if rot is None else rot)
            M = np.stack(mats).astype(COMPLEX_DTYPE)
            ax = self.fragment.cut_local[k]
            # contract the bank's cut axis with the whole rotation stack at
            # once; restore the fresh 2-axis to the cut position and push
            # the new P_k batch axis to the back
            t = np.tensordot(M, t, axes=([2], [ax]))
            t = np.moveaxis(t, 1, ax + 1)
            t = np.moveaxis(t, 0, -1)
        # t axes: (2,)*n state, 2^{K_prev} batch, P_0, ..., P_{Kn-1}
        for s in missing:
            idx = tuple(pools[k].index(s[k]) for k in range(Kn))
            bank = np.ascontiguousarray(t[(Ellipsis,) + idx])
            bank.setflags(write=False)
            self._rotated[s] = bank
        return self

    def warm(
        self, combos: Iterable[tuple[Sequence[str], Sequence[str]]] = ()
    ) -> "TreeFragmentSimCache":
        """Precompute distributions so later reads are lock-free/thread-safe.

        Distinct settings are rotated in one batched pass
        (:meth:`warm_rotations`) before the per-combo distributions are
        filled in.
        """
        combos = [(tuple(a), tuple(s)) for a, s in combos]
        if combos:
            self.warm_rotations({s for _, s in combos})
        for inits, setting in combos:
            self.probabilities(inits, setting)
        return self

    # ------------------------------------------------------------------
    # Cross-process state transfer (the process-pool executor's substrate).
    def export_arrays(self) -> tuple[dict, dict]:
        """Warmed state as ``(arrays, meta)`` for cross-process transfer.

        ``arrays`` maps stable names to the large read-only banks (the
        response columns, per-setting rotated banks, and memoised flat
        distributions) — suitable for a shared-memory segment so every
        worker process maps one copy.  ``meta`` is a small picklable
        manifest pairing those names back to their dict keys.  ``_joint``
        records are derivable and deliberately not shipped.
        """
        arrays: dict[str, np.ndarray] = {}
        meta = {"dtype": self.dtype.str, "rotated": [], "probs": []}
        if self._columns is not None:
            arrays["columns"] = self._columns
        for j, setting in enumerate(sorted(self._rotated)):
            arrays[f"rot{j}"] = self._rotated[setting]
            meta["rotated"].append(setting)
        for j, key in enumerate(sorted(self._probs)):
            arrays[f"p{j}"] = self._probs[key]
            meta["probs"].append(key)
        return arrays, meta

    @classmethod
    def from_arrays(cls, fragment, arrays, meta) -> "TreeFragmentSimCache":
        """Rebuild a warmed cache around ``fragment`` from exported state.

        The inverse of :meth:`export_arrays`.  ``fragment`` must be the
        worker's own (pickled) copy of the same fragment — backends compare
        cache identity with ``cache.fragment is frag`` before serving from
        it, so the restored cache binds to the consumer's object, not the
        exporter's.
        """
        cache = cls(fragment, dtype=np.dtype(meta["dtype"]))
        cache._columns = arrays.get("columns")
        cache._rotated = {
            tuple(s): arrays[f"rot{j}"] for j, s in enumerate(meta["rotated"])
        }
        cache._probs = {
            (tuple(a), tuple(s)): arrays[f"p{j}"]
            for j, (a, s) in enumerate(meta["probs"])
        }
        return cache

    def rebind(self, fragment) -> "TreeFragmentSimCache":
        """A cache serving ``fragment`` from this cache's warmed state.

        The content-addressed fragment store hands one warmed cache to many
        structurally-identical fragments from different requests; the clone
        *shares* the memo dicts and the response-column box, so anything
        either copy warms benefits both (the cross-request cache-hit law)
        no matter which clone computes first.  Rebinding to the cache's own
        fragment is the identity.
        """
        if fragment is self.fragment:
            return self
        clone = type(self)(fragment, dtype=self.dtype)
        clone._columns_box = self._columns_box
        clone._rotated = self._rotated
        clone._probs = self._probs
        clone._joint = self._joint
        return clone


class TreeCachePool:
    """One per-fragment simulation cache per tree node.

    ``pool[i]`` is fragment ``i``'s cache (ideal
    :class:`TreeFragmentSimCache` or noisy
    :class:`~repro.cutting.noisy_cache.NoisyTreeFragmentSimCache`,
    whichever the backend's
    :meth:`~repro.backends.base.Backend.make_tree_cache_pool` built), keyed
    by node index — i.e. by the node's entering group, since those are in
    bijection.  An ``N``-node tree therefore costs exactly ``N`` body
    transpiles/simulations however many variants are served.  After
    :meth:`warm` every cache is read-only, so the whole pool is safe to
    share across worker threads.
    Chains are linear trees, so chain pipelines use the same pool class
    (``ChainCachePool`` is an alias).
    """

    __slots__ = ("tree", "caches")

    def __init__(self, tree, caches: Sequence) -> None:
        if len(caches) != tree.num_fragments:
            raise CutError("cache pool needs one cache per tree fragment")
        self.tree = tree
        self.caches = list(caches)

    @property
    def chain(self):
        """Alias of :attr:`tree` (chains are linear trees)."""
        return self.tree

    def __len__(self) -> int:
        return len(self.caches)

    def __getitem__(self, index: int):
        return self.caches[index]

    def __iter__(self):
        return iter(self.caches)

    def warm(self, variants_per_fragment: Sequence[Sequence[tuple]]) -> "TreeCachePool":
        """Warm every fragment's cache with its variant combos.

        ``None`` entries mark fragments skipped by a partial pass (see
        :func:`repro.cutting.execution.run_chain_fragments`) — their caches
        are left cold.
        """
        if len(variants_per_fragment) != len(self.caches):
            raise CutError("need one variant list per fragment")
        for cache, combos in zip(self.caches, variants_per_fragment):
            if combos is not None:
                cache.warm(combos)
        return self


#: Chains are linear trees; the chain names remain as aliases so existing
#: imports and isinstance checks keep working on the single tree engine.
ChainFragmentSimCache = TreeFragmentSimCache
ChainCachePool = TreeCachePool
