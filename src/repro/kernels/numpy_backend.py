"""Default kernel backend: NumPy labeling plus the compiled pricing kernel.

Labeling is plain ``numpy`` index arithmetic with a ``scipy.sparse``
run merge.  ``label_components`` must reproduce the raster union–find
numbering bit-for-bit: runs are emitted in raster order, so the
smallest run id in a component sits at the component's raster-first
pixel; the final remap sorts components by that id, which is exactly
the numbering the per-pixel oracle produces.

Pricing (``clamped_band_sums``) and the two prefix-sum fields run in
the compiled kernel of :mod:`repro.kernels.compiled`, which reproduces
the base class's NumPy loop and ``np.cumsum`` bit for bit.  When the
kernel cannot be built or fails its load-time self-check, each method
falls back to the base class (the reason is in ``pricing_fallback``,
and every fallen-back pricing batch counts one
``kernels.compiled_fallback``).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from repro.kernels import compiled
from repro.kernels.backend import KernelBackend
from repro.obs import get_recorder


def _merge_run_graph(n_runs: int, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Component id per run for the undirected run-overlap graph."""
    graph = coo_matrix(
        (np.ones(edges_a.size, dtype=np.int8), (edges_a, edges_b)),
        shape=(n_runs, n_runs),
    )
    _, comp = connected_components(graph, directed=False)
    return comp


class NumpyBackend(KernelBackend):
    name = "numpy"

    def __init__(self) -> None:
        self._loaded: tuple[compiled.PricingKernel | None, str | None] | None = None

    def _kernel(self) -> compiled.PricingKernel | None:
        if self._loaded is None:
            self._loaded = compiled.kernel()
        return self._loaded[0]

    @property
    def pricing_fallback(self) -> str | None:
        self._kernel()
        return self._loaded[1]

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        mask = np.ascontiguousarray(mask, dtype=bool)
        ny, nx = mask.shape
        labels = np.zeros((ny, nx), dtype=np.int32)
        if mask.size == 0 or not mask.any():
            return labels, 0
        get_recorder().incr("kernels.label_calls")
        # Run-length encode every row at once.  With a False guard
        # column on each side, +1 transitions mark run starts and -1
        # transitions mark (exclusive) run ends; np.nonzero yields both
        # in raster order, so starts[i]/ends[i] pair up globally.
        padded = np.zeros((ny, nx + 2), dtype=np.int8)
        padded[:, 1:-1] = mask
        step = np.diff(padded, axis=1)
        run_rows, starts = np.nonzero(step == 1)
        ends = np.nonzero(step == -1)[1]
        n_runs = run_rows.size
        # 4-connectivity: a run in row r joins every run in row r-1
        # whose column interval overlaps.  Runs within a row are
        # disjoint and sorted, so with row-composite keys the overlap
        # set is one contiguous slice found by two searchsorted calls
        # over all row pairs at once.
        span = nx + 2
        key_start = run_rows.astype(np.int64) * span + starts
        key_end = run_rows.astype(np.int64) * span + ends
        lo = np.searchsorted(key_end, key_start - span, side="right")
        hi = np.searchsorted(key_start, key_end - span, side="left")
        degree = hi - lo
        cur = np.repeat(np.arange(n_runs), degree)
        prev = np.arange(degree.sum()) - np.repeat(
            np.cumsum(degree) - degree, degree
        ) + np.repeat(lo, degree)
        comp = _merge_run_graph(n_runs, cur, prev)
        # Canonical numbering: components ordered by their smallest run
        # id = raster order of each component's first pixel, matching
        # the per-pixel union–find oracle exactly.
        first_run = np.full(int(comp.max()) + 1, n_runs, dtype=np.int64)
        np.minimum.at(first_run, comp, np.arange(n_runs))
        remap = np.empty(first_run.size, dtype=np.int32)
        remap[np.argsort(first_run, kind="stable")] = np.arange(
            1, first_run.size + 1, dtype=np.int32
        )
        run_label = remap[comp]
        # Paint: runs cover exactly the True pixels in raster order.
        labels[mask] = np.repeat(run_label, ends - starts)
        return labels, int(first_run.size)

    def component_stats(
        self, labels: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        ys, xs = np.nonzero(labels)
        empty = np.empty(0, dtype=np.int64)
        if ys.size == 0:
            return (empty,) * 6
        lab = labels[ys, xs]
        order = np.argsort(lab, kind="stable")
        lab_sorted = lab[order]
        seg_starts = np.flatnonzero(
            np.diff(lab_sorted, prepend=lab_sorted[0] - 1)
        )
        present = lab_sorted[seg_starts].astype(np.int64)
        counts = np.diff(np.append(seg_starts, lab_sorted.size))
        ys_g, xs_g = ys[order], xs[order]
        # Stable sort keeps raster order inside each label segment, so
        # rows are non-decreasing per segment: min/max are the ends.
        seg_ends = np.append(seg_starts[1:], lab_sorted.size) - 1
        ymin, ymax = ys_g[seg_starts], ys_g[seg_ends]
        xmin = np.minimum.reduceat(xs_g, seg_starts)
        xmax = np.maximum.reduceat(xs_g, seg_starts)
        return present, counts, ymin, ymax, xmin, xmax

    def clamped_band_sums(
        self,
        windows: np.ndarray,
        row_vals: np.ndarray,
        col_vals: np.ndarray,
        sign: np.ndarray,
        base: np.ndarray,
        active_integral: np.ndarray,
        cost_integral: np.ndarray,
    ) -> np.ndarray:
        pk = self._kernel()
        if pk is None:
            get_recorder().incr("kernels.compiled_fallback")
            return super().clamped_band_sums(
                windows, row_vals, col_vals, sign, base,
                active_integral, cost_integral,
            )
        if not len(windows):
            return np.zeros(0, dtype=np.float64)
        # The kernel walks raw buffers: check every window lies inside
        # the grid and the factor buffers hold exactly one row (column)
        # factor entry per window row (column).
        windows = np.ascontiguousarray(windows, dtype=np.int64).reshape(-1, 4)
        ny, nx = sign.shape
        heights = windows[:, 1] - windows[:, 0]
        widths = windows[:, 3] - windows[:, 2]
        if windows.size and (
            windows.min() < 0 or heights.min() < 0 or widths.min() < 0
            or windows[:, 1].max() > ny or windows[:, 3].max() > nx
        ):
            raise ValueError("candidate window outside the grid")
        if row_vals.size != heights.sum() or col_vals.size != widths.sum():
            raise ValueError("profile factors do not match the windows")
        if base.shape != (ny, nx) or active_integral.shape != (ny + 1, nx + 1) or (
            cost_integral.shape != (ny + 1, nx + 1)
        ):
            raise ValueError("field and integral shapes disagree")
        f64 = np.float64
        costs = pk.price_bands(
            windows,
            np.ascontiguousarray(row_vals, dtype=f64),
            np.ascontiguousarray(col_vals, dtype=f64),
            np.ascontiguousarray(sign, dtype=f64),
            np.ascontiguousarray(base, dtype=f64),
            np.ascontiguousarray(active_integral, dtype=np.int32),
            np.ascontiguousarray(cost_integral, dtype=f64),
        )
        obs = get_recorder()
        obs.incr("kernels.compiled_batches")
        obs.incr("kernels.compiled_candidates", windows.shape[0])
        return costs

    def cost_integral(
        self, field: np.ndarray, box: tuple[int, int, int, int], out: np.ndarray
    ) -> np.ndarray:
        pk = self._kernel()
        if pk is None or not _fits(field, box, out, np.float64):
            return super().cost_integral(field, box, out)
        return pk.cost_integral(field, box, out)

    def active_integral(
        self,
        field: np.ndarray,
        box: tuple[int, int, int, int],
        threshold: float,
        out: np.ndarray,
    ) -> np.ndarray:
        pk = self._kernel()
        if pk is None or not _fits(field, box, out, np.int32):
            return super().active_integral(field, box, threshold, out)
        return pk.active_integral(field, box, threshold, out)

    def describe(self) -> dict[str, str | None]:
        return {
            "labeling": "run_length_row_merge",
            "pricing": "loop" if self.pricing_fallback else "compiled",
            "pricing_fallback": self.pricing_fallback,
        }


def _fits(
    field: np.ndarray, box: tuple[int, int, int, int], out: np.ndarray, dtype
) -> bool:
    """True when the compiled prefix-sum routines can run on these
    buffers in place: C-contiguous, expected dtypes, box inside the grid."""
    ny, nx = field.shape
    r0, r1, c0, c1 = box
    return (
        field.dtype == np.float64
        and out.dtype == dtype
        and field.flags.c_contiguous
        and out.flags.c_contiguous
        and out.shape == (ny + 1, nx + 1)
        and 0 <= r0 <= r1 <= ny
        and 0 <= c0 <= c1 <= nx
    )
