"""Scalar oracle backend: the original pure-Python/per-label paths.

Selecting ``--kernels scalar`` routes every hot spot through the code
the vectorized and compiled kernels are gated against: the per-pixel
raster union–find labeling, the per-label ``np.nonzero`` bounding-box
scan, the per-candidate pricing loop, the ``np.cumsum`` prefix sums and
the full-grid stitch cost field.
Equivalence tests run both backends and require identical results.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.backend import KernelBackend


class ScalarBackend(KernelBackend):
    name = "scalar"
    compiled_pricing = False
    crop_stitch_field = False

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
        from repro.geometry.labeling import label_components_scalar

        return label_components_scalar(mask)

    def component_stats(
        self, labels: np.ndarray, count: int
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        present, counts, ymins, ymaxs, xmins, xmaxs = [], [], [], [], [], []
        for label in range(1, count + 1):
            ys, xs = np.nonzero(labels == label)
            if len(ys) == 0:
                continue
            present.append(label)
            counts.append(len(ys))
            ymins.append(int(ys.min()))
            ymaxs.append(int(ys.max()))
            xmins.append(int(xs.min()))
            xmaxs.append(int(xs.max()))
        as_array = lambda seq: np.asarray(seq, dtype=np.int64)  # noqa: E731
        return (
            as_array(present),
            as_array(counts),
            as_array(ymins),
            as_array(ymaxs),
            as_array(xmins),
            as_array(xmaxs),
        )

    def describe(self) -> dict[str, str | None]:
        return {
            "labeling": "python_union_find",
            "pricing": "loop",
            "pricing_fallback": None,
            "stitch_field": "full",
        }
