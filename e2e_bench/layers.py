"""Trace targets, stages and the per-layer metrics computed from spans.

Span names are ``<module>.<function>``; several targets may share one name
(a method overridden per backend, or the eager and lazy halves of a cache
fill).  ``STAGES`` groups span names into the pipeline stages used to name
each workload's largest self-time stage.
"""

from __future__ import annotations

from collections import defaultdict

#: (span name, "module:qualname") — see tracer.Tracer
TARGETS = [
    ("search.find_cut_specs", "repro.cutting.search:find_cut_specs"),
    ("fragments.bipartition", "repro.cutting.fragments:bipartition"),
    ("tree.partition_tree", "repro.cutting.tree:partition_tree"),
    ("detection.detect_tree_golden_bases", "repro.core.detection:detect_tree_golden_bases"),
    # eager pool warm (parallel executors) and the serial path's lazy
    # first-read fills
    ("cache.pool_warm", "repro.cutting.cache:TreeCachePool.warm"),
    ("cache.pool_warm", "repro.cutting.cache:TreeFragmentSimCache._response_columns"),
    ("cache.pool_warm", "repro.cutting.cache:TreeFragmentSimCache._rotated_columns"),
    ("cache.pool_warm", "repro.cutting.noisy_cache:NoisyTreeFragmentSimCache._body_state"),
    ("cache.pool_warm", "repro.cutting.noisy_cache:NoisyTreeFragmentSimCache._setting_diag"),
    ("noisy_cache.physical", "repro.cutting.noisy_cache:NoisyTreeFragmentSimCache.physical"),
    ("transpile.transpile", "repro.transpile.pipeline:transpile"),
    ("density.evolve_noisy_tensor", "repro.sim.density:evolve_noisy_tensor"),
    ("statevector.simulate_statevector", "repro.sim.statevector:simulate_statevector"),
    ("statevector.apply_circuit_to_tensor", "repro.sim.statevector:apply_circuit_to_tensor"),
    ("sampler.sample_counts", "repro.sim.sampler:sample_counts"),
    ("sampler.counts_to_probs", "repro.sim.sampler:counts_to_probs"),
    ("sampler.probs_to_counts", "repro.sim.sampler:probs_to_counts"),
    ("backend.run_tree_variants", "repro.backends.base:Backend.run_tree_variants"),
    ("backend.run_tree_variants", "repro.backends.ideal:IdealBackend.run_tree_variants"),
    (
        "backend.run_tree_variants",
        "repro.backends.fake_hardware:FakeHardwareBackend.run_tree_variants",
    ),
    ("execution.run_tree_fragments", "repro.cutting.execution:run_tree_fragments"),
    (
        "reconstruction.reconstruct_tree_distribution",
        "repro.cutting.reconstruction:reconstruct_tree_distribution",
    ),
    (
        "reconstruction.build_tree_fragment_tensor",
        "repro.cutting.reconstruction:build_tree_fragment_tensor",
    ),
    ("contraction.search_plan", "repro.cutting.contraction:search_plan"),
    (
        "executor.run_tree_fragments_parallel",
        "repro.parallel.executor:run_tree_fragments_parallel",
    ),
    ("pool.run_tree_tasks_process", "repro.parallel.pool:run_tree_tasks_process"),
    ("service.run_fragments", "repro.parallel.service:CutRunService.run_fragments"),
    ("fingerprint.fragment_fingerprint", "repro.cutting.fingerprint:fragment_fingerprint"),
]

STAGES = {
    "search": ("search.find_cut_specs", "fragments.bipartition"),
    "partition": ("tree.partition_tree",),
    "detection": ("detection.detect_tree_golden_bases",),
    "cache": ("cache.pool_warm", "noisy_cache.physical"),
    "transpile": ("transpile.transpile",),
    "noisy evolution": ("density.evolve_noisy_tensor",),
    "statevector": ("statevector.simulate_statevector", "statevector.apply_circuit_to_tensor"),
    "sampling": ("sampler.sample_counts", "sampler.counts_to_probs", "sampler.probs_to_counts"),
    "backend": ("backend.run_tree_variants",),
    "execution": ("execution.run_tree_fragments",),
    "reconstruction": (
        "reconstruction.reconstruct_tree_distribution",
        "reconstruction.build_tree_fragment_tensor",
        "contraction.search_plan",
    ),
    "process pool": ("executor.run_tree_fragments_parallel", "pool.run_tree_tasks_process"),
    "service": ("service.run_fragments", "fingerprint.fragment_fingerprint"),
}

#: runners whose pilot and production calls are told apart
_RUNNERS = ("execution.run_tree_fragments", "service.run_fragments")
_PRODUCTION = _RUNNERS + ("executor.run_tree_fragments_parallel",)


def _runner_kind(args, kwargs) -> dict:
    # a pilot pass runs one node: every other fragment's variant list is None
    variants = kwargs.get("variants")
    return {"pilot": variants is not None and any(v is None for v in variants)}


def _variant_count(args, kwargs) -> dict:
    combos = kwargs["combos"] if "combos" in kwargs else args[3]
    return {"variants": len(combos)}


ANNOTATORS = {
    "execution.run_tree_fragments": _runner_kind,
    "service.run_fragments": _runner_kind,
    "backend.run_tree_variants": _variant_count,
}


def span_totals(spans) -> "tuple[dict, dict, dict]":
    """``(calls, self seconds, duration seconds)`` summed per span name."""
    calls: dict = defaultdict(int)
    self_s: dict = defaultdict(float)
    dur_s: dict = defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        dur_s[s.name] += s.duration
    return calls, self_s, dur_s


def stage_self_seconds(spans) -> dict:
    """Self seconds per stage (``"uncovered"`` = op time no span covers)."""
    _, self_s, _ = span_totals(spans)
    out = {stage: sum(self_s.get(n, 0.0) for n in names) for stage, names in STAGES.items()}
    out["uncovered"] = self_s.get("op", 0.0)
    return out


def largest_stage(spans) -> str:
    stages = stage_self_seconds(spans)
    stages.pop("uncovered")
    return max(stages, key=stages.get)


def layer_metrics(spans, num_ops: int, extra: dict) -> dict:
    """Per-op per-layer values keyed by metric name.

    ``extra`` supplies what spans cannot see: ``variants_neglected``,
    service/store stat deltas and the traced/untraced p50 ratio.
    """
    calls, self_s, dur_s = span_totals(spans)
    n = max(num_ops, 1)
    out = {}
    for name, _ in TARGETS:
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    pilot = production = 0.0
    for s in spans:
        if s.name in _RUNNERS and s.attrs["pilot"]:
            pilot += s.duration
        elif s.name in _PRODUCTION:
            production += s.duration
    out["execution.run_tree_fragments.pilot_s"] = pilot / n
    out["execution.run_tree_fragments.production_s"] = production / n
    # request-side: what the client thread spends in the coalescing runner
    # outside its own child spans is waiting for dispatcher jobs
    out["service.run_fragments.wait_s"] = self_s.get("service.run_fragments", 0.0) / n
    out["backend.variants"] = (
        sum(s.attrs["variants"] for s in spans if s.name == "backend.run_tree_variants") / n
    )
    out["trace.uncovered_s"] = self_s.get("op", 0.0) / n
    out.update(extra)
    return out
