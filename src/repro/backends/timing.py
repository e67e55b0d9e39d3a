"""Device execution-time model.

IBM-era cloud devices spend wall time in three places per job:

* fixed per-job overhead (compilation, loading, queue handoff),
* per-shot execution: circuit duration (gate times × depth) + readout + reset,
* result marshalling (roughly constant).

The paper's Fig. 5 reports ~18.84 s for 9 fragment-variant jobs × 50 trials
of 1000 shots and ~12.61 s for the golden variant's 6 jobs — i.e. wall time
scales with (jobs × shots) plus overheads.  :class:`DeviceTimingModel`
reproduces exactly that structure; the defaults are calibrated so the
standard/golden *ratio* lands where the paper's does, with absolute numbers
in the same ballpark (see ``benchmarks/bench_fig5_hardware.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuits.circuit import Circuit

__all__ = ["DeviceTimingModel"]


@dataclass(frozen=True)
class DeviceTimingModel:
    """Linear wall-time model for one job of ``shots`` shots.

    Defaults approximate a 2022-era IBM superconducting device:
    1q gate 35 ns, 2q gate 300 ns, readout 4 µs, reset 250 µs (passive),
    per-job overhead 1.8 s (compile + load + marshalling).  With 1000-shot
    jobs this puts one job at ~2.05 s, so the paper's 9-job standard run
    models at ~18.5 s and the 6-job golden run at ~12.3 s — matching the
    reported 18.84 s / 12.61 s to within a few percent, with the 2/3 ratio
    exact by construction.
    """

    gate_time_1q: float = 35e-9
    gate_time_2q: float = 300e-9
    readout_time: float = 4e-6
    reset_time: float = 250e-6
    job_overhead: float = 1.8

    def walk(self, instructions, times: list, depths: list) -> int:
        """Advance per-wire finish times and gate depths through ``instructions``.

        ``times[q]`` / ``depths[q]`` hold wire ``q``'s critical-path time and
        gate count so far; a gate starts when its last wire is free.
        Barriers are zero-duration fences and are skipped.  Returns the
        number of gates walked.  Walking a circuit in consecutive pieces
        performs exactly the floating-point operations of walking it whole,
        which is what lets the noisy fragment cache profile each variant
        from memoised prefixes bit for bit.
        """
        dt1, dt2 = self.gate_time_1q, self.gate_time_2q
        ops = 0
        for inst in instructions:
            if inst.name == "barrier":
                continue
            qs = inst.qubits
            t = max(times[q] for q in qs) + (dt2 if len(qs) >= 2 else dt1)
            d = max(depths[q] for q in qs) + 1
            for q in qs:
                times[q] = t
                depths[q] = d
            ops += 1
        return ops

    def profile(self, circuit: Circuit) -> tuple[float, int, int]:
        """``(duration, gates, depth)`` of one shot of ``circuit``, barriers skipped."""
        times = [0.0] * circuit.num_qubits
        depths = [0] * circuit.num_qubits
        ops = self.walk(circuit, times, depths)
        return max(times, default=0.0), ops, max(depths, default=0)

    def circuit_duration(self, circuit: Circuit) -> float:
        """Critical-path duration of one shot of ``circuit`` (seconds)."""
        return self.profile(circuit)[0]

    def duration_job_seconds(self, duration: float, shots: int) -> float:
        """Total modelled wall time for one job whose shot lasts ``duration``."""
        per_shot = duration + self.readout_time + self.reset_time
        return self.job_overhead + shots * per_shot

    def job_seconds(self, circuit: Circuit, shots: int) -> float:
        """Total modelled wall time for one job."""
        return self.duration_job_seconds(self.circuit_duration(circuit), shots)
