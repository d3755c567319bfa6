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
    patch, pairwise-sum it and subtract the window's current cost.  The
    result must be bit-identical to the per-candidate loop of
    ``RefinementState._price_edge_moves_loop``.

``cost_integral`` / ``active_integral``
    The two per-iteration prefix-sum fields of the greedy pass, over the
    full grid or the stitch crop box.  The base class implements them
    with ``np.cumsum``; overrides must reproduce those bits.

Capability flags (``compiled_pricing``, ``crop_stitch_field``) let a
backend opt out of a kernel; call sites then fall back to the NumPy
loop path and the full-grid fields, which double as the oracles in the
equivalence tests.  The base class itself opts out of both.
"""

from __future__ import annotations

from typing import Any

import numpy as np


class KernelBackend:
    """Base class: capability flags + the kernel entry points."""

    #: Name recorded in manifests; subclasses override.
    name = "base"
    #: When True, ``RefinementState.price_edge_moves`` routes the batch
    #: through :meth:`clamped_band_sums` instead of the Python loop.
    compiled_pricing = False
    #: Why a backend that prices through :meth:`clamped_band_sums` fell
    #: back to the loop (``"no_compiler"``, ``"build_failed"``,
    #: ``"selfcheck_mismatch"``); ``None`` when nothing fell back.
    pricing_fallback: str | None = None
    #: When True, a region-restricted ``RefinementState`` crops its
    #: per-iteration cost/active fields to the active-mask bounding box.
    crop_stitch_field = False

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
        base, 0)`` and summed, and the window's current cost (from
        ``cost_integral``) subtracted — bit-identical to the
        per-candidate pricing loop.
        """
        raise NotImplementedError

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
            "pricing": "compiled" if self.compiled_pricing else "loop",
            "pricing_fallback": self.pricing_fallback,
            "stitch_field": "cropped" if self.crop_stitch_field else "full",
        }
