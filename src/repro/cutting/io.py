"""Resumable persistence for tree fragment runs.

Device runs are the expensive part of circuit cutting — on real clouds they
are queued for hours.  :class:`TreeCheckpoint` is a directory holding one
``.npz`` per *completed* fragment plus a manifest pinning the tree
structure and shot budget (:func:`tree_run_signature`, which hashes every
fragment circuit as the text-QASM dialect of :mod:`repro.circuits.qasm`).
:func:`~repro.cutting.execution.run_tree_fragments` persists each
fragment's records as it finishes and, on resume, loads finished fragments
instead of re-executing them (their RNG streams are still burned, so the
remaining fragments sample exactly what an uninterrupted run would).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.circuits.qasm import circuit_to_qasm
from repro.exceptions import ReconstructionError

__all__ = [
    "TreeCheckpoint",
    "tree_run_signature",
]

_FORMAT_VERSION = 1


def tree_run_signature(tree, shots: int) -> str:
    """Content hash pinning a checkpoint to one (tree, shot budget).

    Covers every fragment's circuit (QASM), wire bookkeeping and group
    topology plus the per-variant shot budget — anything that would change
    the records a resumed run must splice in.
    """
    payload = {
        "shots": int(shots),
        "group_sizes": list(tree.group_sizes),
        "fragments": [
            {
                "qasm": circuit_to_qasm(f.circuit),
                "prep_local": list(f.prep_local),
                "cut_local": list(f.cut_local),
                "out_local": list(f.out_local),
                "out_original": list(f.out_original),
                "in_group": f.in_group,
                "meas_groups": list(f.meas_groups),
                "cut_local_by_group": {
                    str(g): list(w) for g, w in sorted(f.cut_local_by_group.items())
                },
                # joint-prep DAG nodes carry the per-group entering split;
                # single-parent fragments omit the keys so historical tree
                # signatures (and their checkpoints) stay valid
                **(
                    {
                        "in_groups": list(f.in_groups),
                        "prep_local_by_group": {
                            str(g): list(w)
                            for g, w in sorted(f.prep_local_by_group.items())
                        },
                    }
                    if f.num_parents > 1
                    else {}
                ),
            }
            for f in tree.fragments
        ],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


class TreeCheckpoint:
    """Resumable per-fragment archive of a tree execution.

    One directory per run: ``manifest.json`` pins the
    :func:`tree_run_signature`; ``fragment_<i>.npz`` holds fragment ``i``'s
    split records (and any degraded variants) once it completed.  Opening
    an existing checkpoint for a *different* tree or shot budget raises —
    splicing foreign records into a run would be silently wrong.

    Writes are atomic (tmp file + ``os.replace``), so a run killed
    mid-fragment leaves only whole fragments behind.
    """

    def __init__(self, path: "str | Path", tree, shots: int) -> None:
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        self.signature = tree_run_signature(tree, shots)
        manifest = self.path / "manifest.json"
        if manifest.exists():
            stored = json.loads(manifest.read_text())
            if stored.get("format_version") != _FORMAT_VERSION:
                raise ReconstructionError(
                    f"unsupported checkpoint version {stored.get('format_version')}"
                )
            if stored.get("signature") != self.signature:
                raise ReconstructionError(
                    f"checkpoint {self.path} was written for a different "
                    "tree or shot budget"
                )
        else:
            manifest.write_text(
                json.dumps(
                    {
                        "format_version": _FORMAT_VERSION,
                        "signature": self.signature,
                        "shots": int(shots),
                        "num_fragments": tree.num_fragments,
                    }
                )
            )

    # ------------------------------------------------------------------
    def _fragment_path(self, index: int) -> Path:
        return self.path / f"fragment_{index}.npz"

    def has_fragment(self, index: int) -> bool:
        return self._fragment_path(index).exists()

    def completed_fragments(self) -> list[int]:
        return sorted(
            int(p.stem.split("_", 1)[1]) for p in self.path.glob("fragment_*.npz")
        )

    def save_fragment(self, index: int, records: dict, dead=()) -> Path:
        """Persist fragment ``index``'s records (atomic write)."""
        keys = list(records)
        header = {
            "keys": [[list(a), list(s)] for a, s in keys],
            "dead": [[list(a), list(s)] for a, s in dead],
        }
        arrays = {
            "__header__": np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
        }
        for j, key in enumerate(keys):
            arrays[f"rec_{j}"] = records[key]
        target = self._fragment_path(index)
        tmp = target.with_name(target.name + ".tmp")
        with open(tmp, "wb") as fh:
            np.savez_compressed(fh, **arrays)
        os.replace(tmp, target)
        return target

    def load_fragment(self, index: int, combos, dtype=np.float64):
        """Load fragment ``index`` if completed; ``None`` otherwise.

        Returns ``(records, dead)``.  The stored variant set (records plus
        degraded variants) must equal ``combos`` — a mismatch means the
        checkpoint belongs to a different variant plan and raises.
        """
        target = self._fragment_path(index)
        if not target.exists():
            return None
        with np.load(target) as archive:
            header = json.loads(bytes(archive["__header__"]).decode())
            keys = [
                (tuple(a), tuple(s)) for a, s in header["keys"]
            ]
            dead = [(tuple(a), tuple(s)) for a, s in header["dead"]]
            records = {
                key: archive[f"rec_{j}"].astype(dtype, copy=False)
                for j, key in enumerate(keys)
            }
        if set(keys) | set(dead) != {(tuple(a), tuple(s)) for a, s in combos}:
            raise ReconstructionError(
                f"checkpoint fragment {index} was written for a different "
                "variant plan"
            )
        return records, dead

    def clear(self) -> None:
        """Delete every fragment archive and the manifest."""
        for p in self.path.glob("fragment_*.npz"):
            p.unlink()
        manifest = self.path / "manifest.json"
        if manifest.exists():
            manifest.unlink()
