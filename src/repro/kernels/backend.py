"""Array-backend contract for the vectorized hot-spot kernels.

A :class:`KernelBackend` bundles the kernels the profiles of the
pricing and tiling work identified as the remaining wall time, behind
one seam so the equivalence tests can swap in their oracle
implementation without touching call sites:

``label_components``
    Connected-component labeling of a boolean mask.  The contract is
    *exact*: labels AND numbering must match the pure-Python raster
    union–find oracle (components numbered in raster-scan order of
    their first pixel) because tile extraction, AddShot, and the GSC
    baseline all consume the ordering.

``component_stats``
    Per-component bounding boxes + pixel counts from a label array, in
    one pass.

``clamped_band_sums``
    The signed-clamp Eq. 5 scoring of a whole batch of candidate edge
    moves: crop each window to its active sub-band, score the separable
    patch, pairwise-sum it and subtract the window's current cost.

``cost_integral`` / ``active_integral``
    The two per-iteration prefix-sum fields of the greedy pass, over a
    state's field box (the stitch crop box or the whole grid).

The base class implements the three pricing kernels in plain NumPy — a
per-candidate loop and ``np.cumsum`` — and an override must reproduce
those bits.  There are no capability flags: an override that cannot run
(the compiled kernel failed to build) calls ``super()`` inside the same
method, so every call site has one path.  The oracles the equivalence
tests gate all of this against live in ``tests/oracles.py``.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.obs import get_recorder


class KernelBackend:
    """Base class: the kernel entry points, NumPy pricing included."""

    #: Name recorded in manifests; subclasses override.
    name = "base"
    #: Why a compiled backend fell back to the NumPy loop
    #: (``"no_compiler"``, ``"build_failed"``, ``"selfcheck_mismatch"``);
    #: ``None`` when nothing fell back.
    pricing_fallback: str | None = None

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        raise NotImplementedError

    def component_stats(
        self, labels: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stats for the labels present in ``labels``.

        Returns ``(present, counts, ymin, ymax, xmin, xmax)`` — parallel
        arrays over the labels that actually occur (ascending label
        order); absent labels in ``1..count`` are simply not listed.
        """
        raise NotImplementedError

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
        """Batch Eq. 5 Δcost of separable edge-move candidates.

        Candidate ``i`` covers the grid window ``windows[i] = (y0, y1,
        x0, x1)``; its patch is the outer product of a row factor
        (``y1 − y0`` entries of ``row_vals``) and a column factor
        (``x1 − x0`` entries of ``col_vals``), both laid out
        candidate-major.  The window is cropped to its active pixels
        (``active_integral``), the patch scored as ``max(sign·patch +
        base, 0)`` and pairwise-summed, and the window's current cost
        (from ``cost_integral``) subtracted.  A window with no active
        pixel has Δcost exactly 0.  Each batch counts one
        ``kernels.band_loop_batches``.
        """
        get_recorder().incr("kernels.band_loop_batches")
        ncand = windows.shape[0]
        costs = np.zeros(ncand, dtype=np.float64)
        # Final (cropped) window corners per candidate, looked up in the
        # cost integral in one vectorized pass after the loop; all-zero
        # corners (no active pixel) give a zero old cost.
        corners = np.zeros((4, ncand), dtype=np.intp)
        areas = (windows[:, 1] - windows[:, 0]) * (windows[:, 3] - windows[:, 2])
        scratch = np.empty(int(areas.max()) if ncand else 0, dtype=np.float64)
        r_off = c_off = 0
        for i, (y0, y1, x0, x1) in enumerate(windows.tolist()):
            row = row_vals[r_off : r_off + y1 - y0]
            col = col_vals[c_off : c_off + x1 - x0]
            r_off += y1 - y0
            c_off += x1 - x0
            # Row/column sub-range holding every active pixel, from the
            # marginal prefix counts.
            rowcum = active_integral[y0 : y1 + 1, x1] - active_integral[y0 : y1 + 1, x0]
            if rowcum[-1] == rowcum[0]:
                continue
            r0 = int(rowcum.searchsorted(rowcum[0], side="right")) - 1
            r1 = int(rowcum.searchsorted(rowcum[-1], side="left"))
            colcum = active_integral[y1, x0 : x1 + 1] - active_integral[y0, x0 : x1 + 1]
            c0 = int(colcum.searchsorted(colcum[0], side="right")) - 1
            c1 = int(colcum.searchsorted(colcum[-1], side="left"))
            # The patch lives in a contiguous scratch segment, so its
            # pairwise sum is the one the compiled kernel reproduces.
            seg = scratch[: (r1 - r0) * (c1 - c0)].reshape(r1 - r0, c1 - c0)
            np.multiply(row[r0:r1, None], col[None, c0:c1], out=seg)
            window = (slice(y0 + r0, y0 + r1), slice(x0 + c0, x0 + c1))
            seg *= sign[window]
            seg += base[window]
            np.maximum(seg, 0.0, out=seg)
            costs[i] = seg.sum()
            corners[:, i] = (y0 + r0, y0 + r1, x0 + c0, x0 + c1)
        wr0, wr1, wc0, wc1 = corners
        costs -= (
            cost_integral[wr1, wc1]
            - cost_integral[wr0, wc1]
            - cost_integral[wr1, wc0]
            + cost_integral[wr0, wc0]
        )
        return costs

    def cost_integral(
        self, field: np.ndarray, box: tuple[int, int, int, int], out: np.ndarray
    ) -> np.ndarray:
        """Prefix sums of ``max(field, 0)`` over ``box`` into ``out``.

        ``box`` is ``(r0, r1, c0, c1)`` in half-open pixel bounds; only
        ``out[r0+1:r1+1, c0+1:c1+1]`` is written (the rest of the
        ``(ny+1, nx+1)`` buffer keeps its zeros).
        """
        r0, r1, c0, c1 = box
        interior = out[r0 + 1 : r1 + 1, c0 + 1 : c1 + 1]
        np.cumsum(np.maximum(field[r0:r1, c0:c1], 0.0), axis=0, out=interior)
        np.cumsum(interior, axis=1, out=interior)
        return out

    def active_integral(
        self,
        field: np.ndarray,
        box: tuple[int, int, int, int],
        threshold: float,
        out: np.ndarray,
    ) -> np.ndarray:
        """Prefix counts of ``field > threshold`` over ``box`` into
        ``out`` (int32), laid out like :meth:`cost_integral`."""
        r0, r1, c0, c1 = box
        interior = out[r0 + 1 : r1 + 1, c0 + 1 : c1 + 1]
        np.cumsum(field[r0:r1, c0:c1] > threshold, axis=0, out=interior)
        np.cumsum(interior, axis=1, out=interior)
        return out

    def describe(self) -> dict[str, Any]:
        """Kernel-variant record for manifests and telemetry."""
        return {
            "labeling": "none",
            "pricing": "loop",
            "pricing_fallback": self.pricing_fallback,
        }
