"""End-to-end benchmark of the fracturing system.

One command runs one workload through the public entry points —
library (``clips``, ``layout``) and CLI daemon (``service``) — re-checks
every returned shot list with ``check_solution`` on the full shape, and
prints one JSON object as its last line::

    python3 perfbench/run.py --workload clips --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` runs an untraced pass, then a traced pass with timing
shims around each layer's public functions (see ``spans.py``) and a
``TelemetryRecorder`` installed, and reports the per-layer metrics plus
``trace.overhead_ratio`` and ``trace.unattributed_ratio``.  Spans are
kept in memory and written to ``.perfbench/spans-<workload>-<seed>.json``
at the end.  Everything the run writes stays under ``.perfbench/``.

``setup_s`` is the median of three cold set-ups (imports, inputs,
warm-up, daemon start): this process's own and two more in fresh
interpreters started with ``--setup-only`` after the measurement.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 — START must precede every import
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("clips", "layout", "service")
SETUP_SAMPLES = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; 0 keeps every workload's listed input order",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set up, print {\"setup_s\": ...} and exit (used for the "
        "extra set-up samples)",
    )
    return parser.parse_args(argv)


def prepare() -> Path:
    """Import paths, cwd and a private scratch dir inside the checkout."""
    needed = (ROOT / "src" / "repro" / "__init__.py",
              ROOT / "benchmarks" / "bench_windowed.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise SystemExit(
            f"perfbench: not a full checkout, missing {', '.join(missing)}"
        )
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH"))
        if p
    )
    os.chdir(ROOT)
    from perfbench.common import pin_to_one_cpu

    pin_to_one_cpu()
    scratch = ROOT / ".perfbench" / f"run-{os.getpid()}"
    scratch.mkdir(parents=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    return scratch


def make_workload(name: str, seed: int, seconds: float, scratch: Path):
    if name == "clips":
        from perfbench.clips import ClipsWorkload

        return ClipsWorkload(seed, seconds)
    if name == "layout":
        from perfbench.layout import LayoutWorkload

        return LayoutWorkload(seed, seconds, scratch)
    from perfbench.service import ServiceWorkload

    return ServiceWorkload(seed, seconds, scratch)


def extra_setup_samples(args: argparse.Namespace) -> list[float]:
    """Cold set-ups in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True,
        )
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def declared_units() -> dict[str, str]:
    """Unit of every metric, as ``BENCHMARK.json`` declares it."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }


def traced_pass(args, workload, untraced):
    """The traced pass and its per-layer metrics."""
    from perfbench import clips, layout, service
    from perfbench.common import nproc
    from perfbench.spans import Tracer
    from repro.obs import TelemetryRecorder, recording

    tracer = Tracer()
    {"clips": clips.instrument, "layout": layout.instrument,
     "service": service.instrument}[args.workload](tracer)
    recorder = TelemetryRecorder()
    try:
        with recording(recorder):
            traced = workload.run(tracer)
    finally:
        tracer.restore()

    metrics = clips.layer_metrics(tracer, recorder)
    metrics.update(layout.layer_metrics(
        tracer, recorder, getattr(workload, "caches", []), nproc()
    ))
    metrics.update(service.layer_metrics(
        tracer, getattr(workload, "details", {})
    ))
    covered = tracer.covered_s(traced.start, traced.start + traced.wall_s)
    metrics["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s - 1.0
    metrics["trace.unattributed_ratio"] = 1.0 - covered / traced.wall_s
    tracer.dump(
        ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json",
        origin=traced.start,
    )
    return traced, metrics


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its daemon (the finally below).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    scratch = prepare()
    from perfbench.common import peak_rss_mb
    from perfbench.spans import NoTrace

    workload = None
    try:
        workload = make_workload(args.workload, args.seed, args.seconds, scratch)
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        passes = [workload.run(NoTrace())]
        if args.trace:
            workload.reset()
            traced, metrics = traced_pass(args, workload, passes[0])
            passes.append(traced)
        workload.close()
        workload = None
        if not args.trace:
            # RSS first: the set-up samples below are children too.
            rss = peak_rss_mb()
            samples = [setup_s, *extra_setup_samples(args)]
            metrics = {
                "setup_s": statistics.median(samples),
                **passes[0].end_to_end(),
                "peak_rss_mb": rss,
            }
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(scratch, ignore_errors=True)

    units = declared_units()
    problems = [p for run in passes for p in run.problems]
    ops = [op for run in passes for op in run.ops]
    print(json.dumps({
        "ledger": {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            **passes[0].ledger(), "problems": problems,
        },
    }))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op.error is not None),
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
