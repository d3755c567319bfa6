"""``layout``: tiled chips and a hierarchical array on the tile pool.

Each repetition fractures the chip layouts of
``benchmarks/bench_windowed.chip_shape`` over :data:`GRIDS` through
``WindowedFracturer(ours)`` with ``workers = nproc`` (on one CPU, see
``common.pin_to_one_cpu``), then the AREF array of
``benchmarks/bench_hierarchy.arrayed_layout`` through
``fracture_layout(hierarchy=True)`` with ``ours`` and a cold on-disk
``FractureCache`` in a fresh directory.  Repetitions run while the next
one still fits in ``--seconds``; ``wall_s`` is their median, and every
repetition must return the same shots.

The seed permutes the order of the operations within a repetition
(seed 0 keeps the listed order).  The inputs themselves are fixed: see
``clips.py`` for why seeded geometry would make the quality figures
unsteady.
"""

from __future__ import annotations

import random
import statistics
import tempfile
import time
from pathlib import Path

from perfbench.common import Op, PassResult, failing_px, nproc

#: Tile grids of the chip layouts: small grids expose pool spawn cost,
#: large ones parallel scaling.
GRIDS = ((2, 1), (3, 2), (4, 3))
ARRAY = (5, 5)


class LayoutWorkload:
    name = "layout"

    def __init__(self, seed: int, seconds: float, scratch: Path):
        from benchmarks.bench_hierarchy import arrayed_layout
        from benchmarks.bench_windowed import TILE_NM, chip_shape
        from repro.mask.constraints import FractureSpec

        self.spec = FractureSpec()
        self.seconds = seconds
        self.scratch = scratch
        self.workers = nproc()
        self.tile_nm = TILE_NM
        self.ops = [(f"chip-{x}x{y}", chip_shape(x, y)) for x, y in GRIDS]
        self.ops.append((f"array-{ARRAY[0]}x{ARRAY[1]}", arrayed_layout(*ARRAY)))
        if seed != 0:
            random.Random(seed).shuffle(self.ops)
        # Warm-up on layouts outside the workload: spawns a pool once,
        # fills the erf LUT and writes one cache store.
        self._chip(chip_shape(1, 2))
        self._array(arrayed_layout(2, 1))
        self.caches: list = []

    def _chip(self, shape):
        from repro.fracture.windowed import WindowedFracturer
        from repro.methods import make_fracturer

        fracturer = WindowedFracturer(
            make_fracturer("ours"), window_nm=self.tile_nm,
            workers=self.workers,
        )
        return fracturer.fracture(shape, self.spec)

    def _array(self, layout):
        from repro.fracture.cache import FractureCache
        from repro.mask import hierarchy
        from repro.methods import make_fracturer

        store = Path(tempfile.mkdtemp(prefix="cache-", dir=self.scratch))
        cache = FractureCache(max_entries=4096, persist_dir=store)
        report = hierarchy.fracture_layout(
            layout, make_fracturer("ours"), self.spec, cache=cache,
            hierarchy=True,
        )
        return report, cache

    def repetition(self) -> PassResult:
        """One pass over every layout, re-checked."""
        ops: list[Op] = []
        problems: list[str] = []
        self.caches = []
        start = time.perf_counter()
        outputs = []
        for name, item in self.ops:
            t0 = time.perf_counter()
            if name.startswith("chip"):
                outputs.append(self._chip(item))
            else:
                report, cache = self._array(item)
                outputs.append(report)
                self.caches.append(cache)
            ops.append(Op(name, time.perf_counter() - t0))
        wall = time.perf_counter() - start

        for op, (name, item), out in zip(ops, self.ops, outputs):
            if name.startswith("chip"):
                op.shots = len(out.shots)
                op.failing_px = failing_px(out.shots, item, self.spec)
                reported = out.report.total_failing
            else:
                op.shots = sum(len(r.shots) for r in out.results)
                op.failing_px = self._array_failing(out, item, name, problems)
                reported = sum(r.report.total_failing for r in out.results)
            if op.failing_px != reported:
                problems.append(
                    f"{name}: program reports {reported} failing px, "
                    f"re-check finds {op.failing_px}"
                )
        return PassResult(wall, ops, problems, start)

    def _array_failing(self, report, layout, op_name, problems) -> int:
        """Re-check every placed polygon against its own shots."""
        from repro.mask.hierarchy import placed_polygons
        from repro.mask.shape import MaskShape

        placed = placed_polygons(layout)
        if len(report.results) != len(placed):
            problems.append(
                f"{op_name}: {len(report.results)} results for "
                f"{len(placed)} placed polygons"
            )
        total = 0
        for (name, polygon), result in zip(placed, report.results):
            shape = MaskShape.from_polygon(
                polygon, pitch=self.spec.pitch,
                margin=self.spec.grid_margin, name=name,
            )
            total += failing_px(result.shots, shape, self.spec)
        return total

    def run(self, trace) -> PassResult:
        """Repetitions while the next one still fits in ``--seconds``.

        A traced pass runs a single repetition, so its counts repeat
        exactly from run to run.
        """
        reps: list[PassResult] = []
        elapsed = 0.0
        while not reps or (
            not trace.enabled and elapsed + reps[-1].wall_s <= self.seconds
        ):
            reps.append(self.repetition())
            elapsed += reps[-1].wall_s
        first = reps[0]
        problems = list(first.problems)
        for rep in reps[1:]:
            if [op.shots for op in rep.ops] != [op.shots for op in first.ops]:
                problems.append("shot counts differ between repetitions")
            problems.extend(rep.problems)
        # Quality from the first repetition (all are identical); timing
        # as the median repetition and every per-operation latency.
        ops = [
            Op(op.name, statistics.median(r.ops[k].latency_s for r in reps),
               op.shots, op.failing_px)
            for k, op in enumerate(first.ops)
        ]
        wall = statistics.median(r.wall_s for r in reps)
        return PassResult(wall, ops, problems, reps[-1].start)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


def instrument(tracer) -> None:
    """Wrap the tiling, tile pool, stitch and hierarchy layers, plus the
    direct-fracture layers that run in this process."""
    import concurrent.futures

    from perfbench import clips
    from repro.fracture import windowed
    from repro.mask import hierarchy

    clips.instrument(tracer)

    def count_subs(tracer, subs):
        tracer.counts["tiling.sub_shapes"] += len(subs)

    def count_run(tracer, result):
        _, stats = result
        tracer.counts["runtime.tile_retries"] += stats.tile_retries
        tracer.counts["runtime.tile_fallbacks"] += stats.tile_fallbacks
        tracer.counts["runtime.pool_respawns"] += stats.pool_respawns

    tracer.patch(windowed, "plan_tiles", "tiling")
    tracer.patch(windowed, "extract_tile_shapes", "tiling", count_subs)
    tracer.patch(windowed, "seam_band_masks", "tiling")
    tracer.patch(windowed, "split_seam_shots", "tiling")
    tracer.patch(windowed, "run_tiles", "runtime", count_run)
    tracer.patch(windowed, "refine", "stitch")
    tracer.patch(windowed, "check_solution", "constraints")
    tracer.patch(hierarchy, "fracture_layout", "hierarchy")
    tracer.count_calls(
        concurrent.futures, "ProcessPoolExecutor", "runtime.pool_spawns"
    )


def layer_metrics(tracer, recorder, caches, workers: int) -> dict[str, float]:
    counters = recorder.counters
    runtime_busy = tracer.busy_s("runtime")
    tile_busy = sum(
        node.wall_s for node in recorder.root.walk() if node.name == "tile"
    )
    hits = sum(c.stats()["hits"] for c in caches)
    misses = sum(c.stats()["misses"] for c in caches)
    return {
        "tiling.busy_s": tracer.busy_s("tiling"),
        "tiling.tiles": float(counters.get("windowed.tiles", 0)),
        "tiling.sub_shapes": float(tracer.counts["tiling.sub_shapes"]),
        "runtime.busy_s": runtime_busy,
        "runtime.pool_spawns": float(tracer.counts["runtime.pool_spawns"]),
        "runtime.tile_retries": float(tracer.counts["runtime.tile_retries"]),
        "runtime.tile_fallbacks": float(tracer.counts["runtime.tile_fallbacks"]),
        "runtime.utilisation": (
            tile_busy / (workers * runtime_busy) if runtime_busy else 0.0
        ),
        "stitch.busy_s": tracer.busy_s("stitch"),
        "stitch.candidates_priced": float(
            counters.get("windowed.stitch_candidates_priced", 0)
        ),
        "stitch.full_repairs": float(counters.get("windowed.full_repairs", 0)),
        "hierarchy.busy_s": tracer.busy_s("hierarchy"),
        "hierarchy.template_fractures": float(
            counters.get("hierarchy.template_fractures", 0)
        ),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.hits": float(hits),
        "cache.misses": float(misses),
        "cache.disk_writes": float(
            sum(c.stats().get("disk_entries", 0) for c in caches)
        ),
    }
