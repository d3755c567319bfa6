"""``service``: a burst of jobs against a ``repro serve`` daemon.

The daemon runs as a subprocess (``python -m repro serve``) with
``workers = nproc`` (on one CPU, see ``common.pin_to_one_cpu``) and a
private state directory.  One generator sends
``round(JOBS_PER_S * seconds)`` jobs back to back, each over its own
short connection (so at most one connection is open at a time), then
waits for all of them.  Latency runs from the start of the burst, so it
counts queueing behind earlier jobs; ``loadgen.late_p95_s`` reports how
long the generator took to hand the jobs over.

The job mix (:data:`MIX`, order seeded) is built from the job builders
of ``benchmarks/bench_service``:

* fresh small ``ours`` clips (``small_job`` squares, method ``ours``);
* identical resubmits of earlier ``ours`` clips (result-cache hits that
  must return the first result's shots);
* translated ``partition`` repeats (canonical-fingerprint hits, exact
  by construction);
* tiled ``partition`` bars at priority 5 (``large_job``'s three
  widths, 1.1-1.3 um, each repeat of them 1 nm wider, so every one
  fractures).

Its proportions come from ``bench_service.build_workload``, the repo's
only service traffic model: a batch of 12 small clips and 3 tiled bars.
The 12 small slots split evenly over the three small classes, so each
block of 15 jobs holds 4 fresh, 4 resubmits, 4 repeats and 3 bars.  The
ledger line reports each class's measured share of daemon busy time
(``busy_share_by_class``).

Every repeat is exact or translation-exact, so ``shots`` does not
depend on whether a repeat hit the cache.

Why a burst and not an open-loop Poisson stream below capacity: on a
2-core host the per-job latency of such a stream (tens of ms) moved by
an IQR of 0.14-0.37 of its median over 5-10 runs at every rate tried
(2.5-12 jobs/s, fixed or seeded schedules, 1-8 clips per job), more
than the largest bound a metric may have (0.25).  In a burst the
latencies are queueing times that scale with the daemon's throughput,
which repeats as well as CPU-bound work does.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from perfbench.common import Op, PassResult, failing_px, nproc, quantile

#: Jobs per second of ``--seconds``.  The daemon's throughput on this
#: mix, pinned to one CPU of a 2-core x86-64 host, was 18.6 jobs/s, so
#: a burst drains in about 0.75 ``--seconds``.
JOBS_PER_S = 14.0
#: A job that settles later than this many ``--seconds`` after the start
#: of the burst counts against goodput.  It sits above the tail of a
#: burst at the measured throughput: a limit inside the latency
#: distribution makes goodput track throughput squared (jobs within the
#: limit times jobs per second): over ten runs its spread was 0.23-0.50
#: of the median for limits at 0.45-0.95 of the burst's median wall,
#: against 0.11 for a limit above the tail.
LATENCY_LIMIT_PER_S = 1.5
#: ``small_job`` indices of the partition squares that repeat.
REPEAT_BASES = (60, 61, 62)
SMALL_CLASSES = ("fresh", "resubmit", "repeat")
#: Distinct bars in ``bench_service.build_workload(reduced=False)``.
BAR_WIDTHS = 3


def job_mix() -> tuple[str, ...]:
    """Job classes of one block, in ``bench_service.build_workload``'s
    small:large proportion (12:3), small slots split evenly."""
    from benchmarks.bench_service import LARGE_PRIORITY, build_workload

    batch = build_workload(reduced=False)
    bars = sum(1 for job in batch if job["priority"] == LARGE_PRIORITY)
    per_class = (len(batch) - bars) // len(SMALL_CLASSES)
    return SMALL_CLASSES * per_class + ("bar",) * bars


MIX = job_mix()


def build_jobs(seed: int, seconds: float) -> list[dict]:
    """The seeded job list of one pass, in submission order."""
    from benchmarks.bench_service import large_job, small_job

    rng = random.Random(seed)
    count = max(len(MIX), round(JOBS_PER_S * seconds))
    classes = list(MIX * math.ceil(count / len(MIX)))[:count]
    rng.shuffle(classes)
    # A resubmit needs an earlier fresh clip to repeat.
    first = classes.index("fresh")
    classes[0], classes[first] = classes[first], classes[0]

    jobs: list[dict] = []
    fresh: list[dict] = []
    bars = repeats = 0
    for k, kind in enumerate(classes):
        if kind == "fresh":
            job = dict(small_job(len(fresh)), method="ours")
            fresh.append(job)
        elif kind == "resubmit":
            job = dict(rng.choice(fresh))
        elif kind == "repeat":
            base = small_job(REPEAT_BASES[repeats % len(REPEAT_BASES)])
            repeats += 1
            dx, dy = rng.randint(-500, 500), rng.randint(-500, 500)
            job = dict(base, clips={
                name: [[x + dx, y + dy] for x, y in vertices]
                for name, vertices in base["clips"].items()
            })
        else:
            # bench_service's three bar widths, 1 nm wider in every
            # later block, so every bar is a miss.
            base = large_job(bars % BAR_WIDTHS)
            grow = float(bars // BAR_WIDTHS)
            job = dict(base, clips={
                f"bar-{bars}": [[x + grow if x else x, y] for x, y in vertices]
                for vertices in base["clips"].values()
            })
            bars += 1
        job["kind"] = kind
        job["name"] = f"job-{k}-{kind}"
        jobs.append(job)
    return jobs


def warmup_jobs() -> list[dict]:
    """``bench_service.warmup_workload`` plus an ``ours`` clip, all
    disjoint from :func:`build_jobs` geometry."""
    from benchmarks.bench_service import warmup_workload

    jobs = warmup_workload()
    return jobs + [dict(jobs[0], method="ours", name="warmup-ours")]


def submit(client, job: dict) -> str:
    """Submit one job dict of :func:`build_jobs`; returns its id."""
    return client.submit(
        job["clips"], name=job["name"], method=job["method"],
        priority=job["priority"], window_nm=job.get("window_nm"),
    )


class Daemon:
    """A ``python -m repro serve`` subprocess on a private state dir."""

    def __init__(self, state_dir: Path, queue_depth: int):
        from repro.service.client import ServiceClient, wait_for_daemon

        state_dir.mkdir(parents=True)
        # A relative path keeps the Unix socket path short however
        # deep the checkout is; the daemon runs in this process's cwd.
        self.state_dir = Path(os.path.relpath(state_dir))
        self.log = open(state_dir.parent / f"{state_dir.name}.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--state-dir", str(self.state_dir),
             "--workers", str(nproc()),
             "--queue-depth", str(queue_depth)],
            stdout=self.log, stderr=subprocess.STDOUT,
        )
        try:
            wait_for_daemon(self.state_dir, timeout_s=60)
        except BaseException:
            self.stop()
            raise
        self.client = ServiceClient(self.state_dir, timeout_s=120)

    def stop(self) -> None:
        from repro.service.client import ServiceClient, ServiceError

        try:
            if self.proc.poll() is None:
                ServiceClient(self.state_dir, timeout_s=10).shutdown("drain")
            self.proc.wait(timeout=60)
        except (ServiceError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self.log.close()


class ServiceWorkload:
    name = "service"

    def __init__(self, seed: int, seconds: float, scratch: Path):
        from repro.mask.constraints import FractureSpec

        self.spec = FractureSpec()
        self.scratch = scratch
        self.seconds = seconds
        self.jobs = build_jobs(seed, seconds)
        self.daemons = 0
        self.daemon: Daemon | None = None
        self.details: dict = {}
        self.reset()

    def reset(self) -> None:
        """A fresh daemon (cold caches), warmed up off the workload."""
        self.close()
        self.daemons += 1
        self.daemon = Daemon(
            self.scratch / f"svc{self.daemons}", queue_depth=len(self.jobs)
        )
        client = self.daemon.client
        for job in warmup_jobs():
            state = client.wait(submit(client, job), timeout_s=120)
            if state["state"] != "done":
                raise RuntimeError(f"warm-up job failed: {state.get('error')}")

    def run(self, trace) -> PassResult:
        from repro.service.client import ServiceClient, ServiceError

        client = ServiceClient(self.daemon.state_dir, timeout_s=120)
        before = client.stats()
        origin_unix = time.time()
        origin = time.perf_counter()
        sent: list[tuple[str | None, str | None]] = []
        late: list[float] = []
        for job in self.jobs:
            late.append(time.perf_counter() - origin)
            try:
                sent.append((submit(client, job), None))
            except ServiceError as error:
                sent.append((None, f"{error.code}: {error}"))
        records = [
            client.wait(job_id, timeout_s=120) if job_id else None
            for job_id, _ in sent
        ]
        finished = [r["finished_unix"] for r in records if r and r["finished_unix"]]
        wall = (max(finished) if finished else time.time()) - origin_unix

        ops: list[Op] = []
        problems: list[str] = []
        first_shots: dict[str, list] = {}
        to_perf = origin - origin_unix
        for (job_id, error), record, job in zip(sent, records, self.jobs):
            if record is not None and record["state"] != "done":
                error = f"{record['state']}: {record.get('error')}"
            if error is not None:
                ops.append(Op(job["name"], 0.0, error=error))
                continue
            op = Op(job["name"], record["finished_unix"] - origin_unix)
            self._check(client.result(job_id), job, op, first_shots, problems)
            ops.append(op)
            if trace.enabled:
                trace.add_interval(
                    "queue", record["submitted_unix"] + to_perf,
                    record["started_unix"] + to_perf,
                )
                trace.add_interval(
                    "executor", record["started_unix"] + to_perf,
                    record["finished_unix"] + to_perf,
                )
        done = [
            (r, job) for r, job in zip(records, self.jobs)
            if r and r["state"] == "done"
        ]
        self.details = {
            "late": late,
            "queue_wait": [r["queue_wait_s"] for r, _ in done],
            "run_wall": [r["run_wall_s"] for r, _ in done],
            "before": before,
            "after": client.stats(),
        }
        busy = sum(self.details["run_wall"]) or 1.0
        share = {
            kind: sum(r["run_wall_s"] for r, job in done if job["kind"] == kind)
            / busy
            for kind in sorted(set(MIX))
        }
        return PassResult(
            wall, ops, problems, origin, LATENCY_LIMIT_PER_S * self.seconds,
            notes={"busy_share_by_class": share},
        )

    def _check(self, result, job, op, first_shots, problems) -> None:
        """Re-verify every returned clip on its full shape."""
        from repro.geometry.point import Point
        from repro.geometry.polygon import Polygon
        from repro.geometry.rect import Rect
        from repro.mask.shape import MaskShape

        returned = result["clips"]
        if set(returned) - set(job["clips"]):
            problems.append(
                f"{job['name']}: result has clips that were not submitted: "
                f"{sorted(set(returned) - set(job['clips']))}"
            )
        for name in job["clips"]:
            clip = returned.get(name)
            if clip is None:
                problems.append(f"{job['name']}/{name}: no result for clip")
                continue
            shape = MaskShape.from_polygon(
                Polygon(Point(x, y) for x, y in job["clips"][name]),
                pitch=self.spec.pitch, margin=self.spec.grid_margin,
                name=name,
            )
            shots = [Rect(*v) for v in clip["shots"]]
            op.shots += len(shots)
            found = failing_px(shots, shape, self.spec)
            op.failing_px += found
            if found != clip["failing_px"]:
                problems.append(
                    f"{job['name']}/{name}: daemon reports "
                    f"{clip['failing_px']} failing px, re-check finds {found}"
                )
            if job["kind"] in ("fresh", "resubmit"):
                key = repr(job["clips"][name])
                earlier = first_shots.setdefault(key, clip["shots"])
                if clip["shots"] != earlier:
                    problems.append(
                        f"{job['name']}/{name}: resubmit returned other "
                        f"shots than the first result"
                    )

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None


LAYERS = (
    "client.submit_rtt_p50_s", "guard.rejected", "queue.wait_p50_s",
    "queue.wait_p95_s", "executor.run_p50_s", "executor.busy_s",
    "caches.result_hit_ratio", "caches.result_hits", "caches.result_misses",
    "loadgen.late_p95_s",
)


def layer_metrics(tracer, details: dict) -> dict[str, float]:
    """Per-layer figures of a service pass (zeros for other workloads)."""
    if not details:
        return dict.fromkeys(LAYERS, 0.0)

    def delta(*path: str) -> int:
        before, after = details["before"], details["after"]
        for key in path:
            before, after = before[key], after[key]
        return after - before

    hits = delta("caches", "result", "hits")
    misses = delta("caches", "result", "misses")
    submits = [s.duration for s in tracer.of("client")]
    return {
        "client.submit_rtt_p50_s": statistics.median(submits),
        "guard.rejected": float(sum(
            delta("guard", "counters", name)
            for name in ("rejected", "rate_limited", "fair_share_deferred")
        )),
        "queue.wait_p50_s": statistics.median(details["queue_wait"]),
        "queue.wait_p95_s": quantile(details["queue_wait"], 0.95),
        "executor.run_p50_s": statistics.median(details["run_wall"]),
        "executor.busy_s": sum(details["run_wall"]),
        "caches.result_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "caches.result_hits": float(hits),
        "caches.result_misses": float(misses),
        "loadgen.late_p95_s": quantile(details["late"], 0.95),
    }


def instrument(tracer) -> None:
    from repro.service.client import ServiceClient

    tracer.patch(ServiceClient, "submit", "client")
