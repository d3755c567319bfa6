"""Pieces shared by the workloads: operation records, the independent
re-check, percentiles and the end-to-end metric fold."""

from __future__ import annotations

import os
import resource
import statistics
from dataclasses import dataclass, field

from repro.mask.constraints import check_solution
from repro.obs import NullRecorder, recording

def failing_px(shots, shape, spec) -> int:
    """Failing pixels of ``shots`` on the full ``shape``, computed here.

    Bound at import time to the library's ``check_solution``, so the
    traced run's wrappers (installed on the modules that import it by
    name) never time it, and run with telemetry off, so it adds nothing
    to the counters the traced run reads.
    """
    with recording(NullRecorder()):
        return check_solution(shots, shape, spec).total_failing


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no values")
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def nproc() -> int:
    """CPUs the benchmark was started on: the pool and daemon worker
    count.  :func:`pin_to_one_cpu` records it for its children."""
    return int(os.environ.get("PERFBENCH_NPROC", len(os.sched_getaffinity(0))))


def pin_to_one_cpu() -> None:
    """Run this process and every child it starts on one CPU.

    On a 2-vCPU VM two busy vCPUs delivered between one and two cores'
    worth of work from second to second: two processes spinning at once
    each took 0.45-0.95 s for what one alone did in 0.45 s.  Unpinned,
    the medians of the two-worker workloads moved by a third between two
    sets of ten runs of the same code, while the single-threaded
    ``clips`` moved by 4%.  Pinned, the pool and the daemon keep
    ``nproc`` workers, so their code paths stay the same, but share one
    CPU, so parallel scaling is not measured.
    """
    os.environ.setdefault("PERFBENCH_NPROC", str(nproc()))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest waited-for child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Op:
    """One operation the workload attempted, with its re-checked outcome.

    ``error`` is set when the operation errored, timed out or was
    rejected; such an operation still counts as attempted.
    """

    name: str
    latency_s: float
    shots: int = 0
    failing_px: int = 0
    error: str | None = None


@dataclass
class PassResult:
    """One timed pass of a workload."""

    wall_s: float
    ops: list[Op]
    #: correctness violations found by the benchmark's own checks
    problems: list[str] = field(default_factory=list)
    #: ``time.perf_counter()`` when the pass began
    start: float = 0.0
    #: per-operation latency limit behind ``goodput_jobs_s``; ``None``
    #: counts every completed operation, so goodput is ops / ``wall_s``
    latency_limit_s: float | None = None
    #: workload-specific figures for the ledger line
    notes: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.error is not None)

    def end_to_end(self) -> dict[str, float]:
        """Every end-to-end metric this pass determines (not set-up/RSS)."""
        done = [op for op in self.ops if op.error is None]
        # With nothing completed, the whole pass went by without a result.
        latencies = [op.latency_s for op in done] or [self.wall_s]
        limit = self.latency_limit_s
        good = sum(1 for op in done if limit is None or op.latency_s <= limit)
        clean = sum(1 for op in done if op.failing_px == 0)
        return {
            "wall_s": self.wall_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_p95_s": quantile(latencies, 0.95),
            "goodput_jobs_s": good / self.wall_s,
            "shots": float(sum(op.shots for op in done)),
            "cd_clean_ratio": clean / len(self.ops),
        }

    def ledger(self) -> dict:
        """Quality figures that may legitimately be zero, printed apart
        from the metrics in BENCHMARK.json."""
        return {
            "failing_px": sum(op.failing_px for op in self.ops),
            "failed_ratio": self.failed / len(self.ops),
            **self.notes,
            "ops": [
                {"name": op.name, "latency_s": op.latency_s,
                 "shots": op.shots, "failing_px": op.failing_px,
                 **({"error": op.error} if op.error else {})}
                for op in self.ops
            ],
        }
