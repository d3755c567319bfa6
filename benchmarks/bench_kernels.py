"""Kernel benchmark: vectorized/compiled backend vs the oracle paths.

Three sections, one per hot-spot kernel behind the ``repro.kernels``
seam:

* ``labeling`` — connected-component labeling on random / structured
  masks at growing sizes, vectorized run-length row-merge vs the pure
  Python union–find oracle (the contract requires ≥3x at 512²);
* ``pricing`` — the compiled ``clamped_band_sums`` kernel vs the
  per-candidate NumPy loop of the :class:`KernelBackend` base class on
  synthetic candidate batches, at a thin and a bulky band size, each run
  asserting bit-identity (the script exits non-zero on any differing
  bit);
* ``stitch_crop`` — per-iteration cost-field work of a seam-band
  restricted ``RefinementState``, whose field box is the active mask's
  bounding box, vs an unrestricted state of the same shape, whose box
  is the whole grid, on a long-bar layout whose seam is a narrow strip,
  so the work scales with seam area, not grid area.

Standalone by design (no pytest-benchmark): CI runs it non-gating and
uploads the JSON artifact.

    PYTHONPATH=src python benchmarks/bench_kernels.py \
        --out benchmarks/output/BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.fracture.graph_color import approximate_fracture
from repro.fracture.state import RefinementState
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.kernels import get_backend
from repro.kernels.backend import KernelBackend
from repro.mask.constraints import FractureSpec
from repro.mask.shape import MaskShape


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


# -- labeling ---------------------------------------------------------------

def _labeling_masks(size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
    iy, ix = np.indices((size, size))
    block = max(1, size // 64)
    coarse = rng.random((size // block + 1, size // block + 1)) < 0.5
    return {
        # p=0.5 noise: the adversarial many-component case.
        "random": rng.random((size, size)) < 0.5,
        # Chunky block noise: the realistic fractured-geometry case.
        "blocks": np.repeat(np.repeat(coarse, block, 0), block, 1)[:size, :size],
        # Diagonal stripes: long runs, few merges.
        "stripes": ((iy + ix) // 7) % 2 == 0,
    }


def bench_labeling(sizes: list[int], repeats: int) -> list[dict]:
    from repro.geometry.labeling import label_components_scalar

    backend = get_backend()
    rng = np.random.default_rng(20150607)
    results = []
    for size in sizes:
        for kind, mask in _labeling_masks(size, rng).items():
            backend.label_components(mask)  # warm-up (scipy import)
            vec = _best_of(lambda: backend.label_components(mask), repeats)
            scal = _best_of(lambda: label_components_scalar(mask), repeats)
            labels_v, count_v = backend.label_components(mask)
            labels_s, count_s = label_components_scalar(mask)
            entry = {
                "size": size,
                "kind": kind,
                "components": int(count_v),
                "scalar_ms": scal * 1e3,
                "numpy_ms": vec * 1e3,
                "speedup": scal / vec if vec > 0 else None,
                "identical": bool(
                    count_v == count_s and np.array_equal(labels_v, labels_s)
                ),
            }
            results.append(entry)
            print(
                f"labeling {size}x{size} {kind}: {entry['speedup']:.2f}x "
                f"({entry['scalar_ms']:.1f}ms -> {entry['numpy_ms']:.1f}ms, "
                f"{count_v} components, identical={entry['identical']})"
            )
    return results


# -- pricing ----------------------------------------------------------------

def bench_pricing(repeats: int) -> list[dict]:
    rng = np.random.default_rng(20150608)
    grid = 512
    sign = rng.choice(np.array([-1.0, 0.0, 1.0]), size=(grid, grid))
    base = rng.normal(scale=0.2, size=(grid, grid))
    box = (0, grid, 0, grid)
    oracle = KernelBackend()
    active_integral = oracle.active_integral(
        base, box, -0.25, np.zeros((grid + 1, grid + 1), dtype=np.int32)
    )
    cost_integral = oracle.cost_integral(
        base, box, np.zeros((grid + 1, grid + 1))
    )
    backend = get_backend()
    if backend.pricing_fallback is not None:
        raise SystemExit(
            f"compiled pricing kernel unavailable: {backend.pricing_fallback}"
        )
    results = []
    for label, (h, w, ncand) in {
        "thin_band": (8, 8, 400),       # seam/contour regime
        "bulky_window": (40, 90, 400),  # whole-window regime (ILT-6 size)
    }.items():
        y0 = rng.integers(0, grid - h, ncand)
        x0 = rng.integers(0, grid - w, ncand)
        windows = np.stack([y0, y0 + h, x0, x0 + w], axis=1).astype(np.int64)
        row_vals = rng.normal(size=ncand * h)
        col_vals = rng.normal(size=ncand * w)
        args = (
            windows, row_vals, col_vals, sign, base,
            active_integral, cost_integral,
        )
        backend.clamped_band_sums(*args)  # warm-up
        fast = _best_of(lambda: backend.clamped_band_sums(*args), repeats)
        loop = _best_of(lambda: oracle.clamped_band_sums(*args), repeats)
        identical = bool(
            np.array_equal(
                backend.clamped_band_sums(*args).view(np.int64),
                oracle.clamped_band_sums(*args).view(np.int64),
            )
        )
        entry = {
            "case": label,
            "candidates": ncand,
            "elements_per_candidate": h * w,
            "loop_ms": loop * 1e3,
            "compiled_ms": fast * 1e3,
            "compiled_speedup": loop / fast if fast > 0 else None,
            "identical": identical,
        }
        results.append(entry)
        print(
            f"pricing {label} ({h * w} el/cand): compiled "
            f"{entry['compiled_speedup']:.1f}x vs loop "
            f"({entry['loop_ms']:.2f}ms -> {entry['compiled_ms']:.2f}ms), "
            f"identical={identical}"
        )
        if not identical:
            raise SystemExit(f"pricing {label}: compiled != loop")
    return results


# -- stitch crop ------------------------------------------------------------

def _long_bar(spec: FractureSpec, length: float = 1200.0, width: float = 60.0):
    polygon = Polygon(
        [Point(0, 0), Point(length, 0), Point(length, width), Point(0, width)]
    )
    return MaskShape.from_polygon(
        polygon, pitch=spec.pitch, margin=spec.grid_margin, name="long-bar"
    )


def bench_stitch_crop(repeats: int, iters: int = 20) -> dict:
    spec = FractureSpec()
    shape = _long_bar(spec)
    shots, _ = approximate_fracture(shape, spec)
    ny, nx = shape.grid.shape
    # A single interior seam band: the 1-D-tiling stitch shape, where
    # the bbox crop pays off (2-D seam lattices cross the whole grid).
    mask = np.zeros((ny, nx), dtype=bool)
    mid = nx // 2
    mask[:, mid - 20:mid + 20] = True

    def field_pass(state: RefinementState) -> None:
        for _ in range(iters):
            state._refresh_cost_base(None)
            state.cost_integral()
            state.active_integral()

    def best_wall(active_mask) -> float:
        state = RefinementState(shape, spec, shots, active_mask=active_mask)
        field_pass(state)  # warm-up
        return _best_of(lambda: field_pass(state), repeats)

    cropped = best_wall(mask)
    full = best_wall(None)
    grid_px = int(mask.size)
    seam_px = int(np.count_nonzero(mask))
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    bbox_px = int((rows[-1] - rows[0] + 1) * (cols[-1] - cols[0] + 1))
    entry = {
        "grid_px": grid_px,
        "seam_px": seam_px,
        "bbox_px": bbox_px,
        "bbox_fraction": bbox_px / grid_px,
        "iterations": iters,
        "full_ms": full * 1e3,
        "cropped_ms": cropped * 1e3,
        "speedup": full / cropped,
    }
    print(
        f"stitch crop: {entry['speedup']:.2f}x per-iteration field work "
        f"({entry['full_ms']:.1f}ms -> {entry['cropped_ms']:.1f}ms for "
        f"{iters} iterations; bbox {bbox_px}px = "
        f"{entry['bbox_fraction']:.1%} of {grid_px}px grid)"
    )
    return entry


def run(repeats: int) -> dict:
    labeling = bench_labeling([128, 256, 512], repeats)
    pricing = bench_pricing(repeats)
    stitch = bench_stitch_crop(repeats)
    at512 = [r for r in labeling if r["size"] == 512]
    aggregate = {
        "labeling_min_speedup_512": min(r["speedup"] for r in at512),
        "labeling_all_identical": all(r["identical"] for r in labeling),
        "pricing_all_identical": all(r["identical"] for r in pricing),
        "compiled_thin_band_speedup": next(
            r["compiled_speedup"] for r in pricing if r["case"] == "thin_band"
        ),
        "compiled_bulky_speedup": next(
            r["compiled_speedup"] for r in pricing if r["case"] == "bulky_window"
        ),
        "stitch_crop_speedup": stitch["speedup"],
    }
    print(
        f"aggregate: labeling >= {aggregate['labeling_min_speedup_512']:.2f}x "
        f"at 512², compiled pricing "
        f"{aggregate['compiled_thin_band_speedup']:.1f}x thin / "
        f"{aggregate['compiled_bulky_speedup']:.1f}x bulky, "
        f"stitch crop {aggregate['stitch_crop_speedup']:.2f}x"
    )
    return {
        "benchmark": "kernels",
        "baseline": "oracle paths (pure-Python union-find, per-candidate "
                    "NumPy loop scoring, whole-grid field box)",
        "backend": get_backend().name,
        "repeats": repeats,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "labeling": labeling,
        "pricing": pricing,
        "stitch_crop": stitch,
        "aggregate": aggregate,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--repeats", type=int, default=5,
        help="timing runs per case; best wall time wins",
    )
    parser.add_argument(
        "--out", type=Path, default=Path("benchmarks/output/BENCH_kernels.json")
    )
    args = parser.parse_args()
    payload = run(args.repeats)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2))
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
