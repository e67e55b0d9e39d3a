"""Self-test of the end-to-end benchmark.

Run from the repository root::

    python3 e2e_bench/selftest.py [--workload NAME ...]

For every workload it runs the benchmark twice with the same seed and a
fixed op count, untraced and traced, and checks that

* every count and seeded quantity reproduces exactly: ``variants_per_call``,
  ``shots_per_call``, ``device_s_per_call``, ``tv_error``,
  ``transpile.transpile.calls``, ``fragments.bipartition.calls``,
  ``service.coalesced_ratio`` and ``store.hit_ratio``;
* no op failed;
* the traced run's largest self-time stage is the one the workload was
  chosen for;
* the tracer refuses a target that no longer exists and restores every
  patched name;
* ``BENCHMARK.json`` agrees with ``catalog.json``.

No assertion compares wall-clock readings with each other or with a limit.
Exits non-zero on the first failed check.
"""

import argparse
import json
import os
import sys

import run as bench

#: ops per client for each workload (the process workload's op is slow)
OPS = {"process-pool": 2, "service-two-clients": 4}
DEFAULT_OPS = 3
SEED = 12345

E2E_EXACT = ("variants_per_call", "shots_per_call", "tv_error")
INFO_EXACT = ("device_s_per_call",)
LAYER_EXACT = (
    "transpile.transpile.calls",
    "fragments.bipartition.calls",
    "service.coalesced_ratio",
    "store.hit_ratio",
)


class SelfTestError(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SelfTestError(message)


def check_manifest(catalog) -> None:
    with open(os.path.join(os.path.dirname(bench.HERE), "BENCHMARK.json")) as fh:
        manifest = json.load(fh)
    pick = {
        "workloads": ("name", "why"),
        "end_to_end": ("name", "unit", "better", "bound"),
        "per_layer": ("name", "unit", "better"),
    }
    for section, keys in pick.items():
        want = [{k: m[k] for k in keys} for m in catalog[section]]
        expect(manifest[section] == want, f"BENCHMARK.json {section} != catalog.json")
    print("BENCHMARK.json matches catalog.json")


def check_tracer() -> None:
    import repro.backends.fake_hardware as fake_hardware
    import repro.sim.sampler as sampler
    from layers import TARGETS
    from tracer import TraceError, Tracer

    try:
        Tracer([("gone", "repro.sim.sampler:no_such_function")]).install()
    except TraceError:
        pass
    else:
        raise SelfTestError("tracer accepted a missing patch target")
    original = sampler.sample_counts
    with Tracer(TARGETS):
        expect(
            fake_hardware.sample_counts is not original,
            "sample_counts not patched where fake_hardware looks it up",
        )
    expect(
        sampler.sample_counts is original and fake_hardware.sample_counts is original,
        "tracer left a patch behind",
    )
    print("tracer patches and restores its targets")


def one(name: str, trace: int) -> "tuple[dict, dict]":
    args = bench.parse_args(
        [
            "--workload", name,
            "--seed", str(SEED),
            "--trace", str(trace),
            "--ops", str(OPS.get(name, DEFAULT_OPS)),
        ]
    )
    result, info = bench.run(args)
    expect(result["correct"] and not result["failed"], f"{name}: failed ops")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, info


def check_workload(name: str) -> None:
    from workloads import WORKLOADS

    (a, ia), (b, ib) = one(name, 0), one(name, 0)
    for key in E2E_EXACT:
        expect(a[key] == b[key], f"{name}: {key} {a[key]} != {b[key]}")
    for key in INFO_EXACT:
        expect(ia[key] == ib[key], f"{name}: {key} {ia[key]} != {ib[key]}")
    (a, ia), (b, ib) = one(name, 1), one(name, 1)
    for key in LAYER_EXACT:
        expect(a[key] == b[key], f"{name}: {key} {a[key]} != {b[key]}")
    expected = WORKLOADS[name].expected_stage
    for info in (ia, ib):
        expect(
            info["largest_stage"] in expected,
            f"{name}: largest self-time stage {info['largest_stage']}, expected {expected}",
        )
    print(f"ok: {name}")


def main(argv=None) -> int:
    catalog = bench.load_catalog()
    names = [w["name"] for w in catalog["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(bench.SRC, "repro")):
        print(f"error: the repro package is not under {bench.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, bench.SRC)
    try:
        check_manifest(catalog)
        check_tracer()
        for name in args.workload or names:
            check_workload(name)
    except SelfTestError as exc:
        print(f"SELFTEST FAILED: {exc}", file=sys.stderr)
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
