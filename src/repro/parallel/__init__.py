"""Parallel execution helpers for fragment variants.

Three layers, each usable alone:

* :mod:`repro.parallel.executor` — thread/process fan-out of fragment
  variant tasks with worker-count-independent RNG streams;
* :mod:`repro.parallel.pool` — the persistent process pool: shared-memory
  cache banks and the worker protocol behind ``mode="process"``;
* :mod:`repro.parallel.service` — :class:`CutRunService`, the request
  coalescer that dedupes concurrent cut runs sharing fragment bodies.
"""

from repro.parallel.executor import (
    parallel_map,
    run_chain_fragments_parallel,
    run_tree_fragments_parallel,
)
from repro.parallel.pool import (
    SharedArrayBank,
    export_cache_pool,
    resolve_start_method,
    run_tree_tasks_process,
)
from repro.parallel.service import CutRunService

__all__ = [
    "CutRunService",
    "SharedArrayBank",
    "export_cache_pool",
    "parallel_map",
    "resolve_start_method",
    "run_chain_fragments_parallel",
    "run_tree_fragments_parallel",
    "run_tree_tasks_process",
]
