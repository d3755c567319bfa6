"""Reference implementations the equivalence tests gate the library on.

None of this is reachable from library code; each piece is the plain,
obviously-correct version of a hot path, kept here so the optimized
path can be compared against it bit for bit:

* :class:`ScalarOracle` — a kernel backend routing every hot spot
  through the oracle paths: the per-pixel raster union–find labeling,
  the per-label ``np.nonzero`` bounding-box scan, the per-candidate
  NumPy pricing loop, the ``np.cumsum`` prefix sums and the full-grid
  stitch cost field.  Install it with
  ``repro.kernels.use_backend(ScalarOracle())``.
* :func:`scalar_improving_moves` — the per-candidate pricing pass of
  greedy edge adjustment, one :meth:`RefinementState.edge_move_delta_cost`
  call per ±Δp move.  Monkeypatched over
  ``repro.fracture.edge_adjust._batched_improving_moves`` it runs a whole
  refinement on the scalar engine.
"""

from __future__ import annotations

import numpy as np

from repro.fracture.edge_adjust import _IMPROVEMENT_EPS, _Move
from repro.fracture.state import RefinementState
from repro.geometry.labeling import label_components_scalar
from repro.geometry.rect import EDGES, Rect
from repro.kernels.backend import KernelBackend
from repro.obs import get_recorder


class ScalarOracle(KernelBackend):
    name = "scalar"
    compiled_pricing = False
    crop_stitch_field = False

    def label_components(self, mask: np.ndarray) -> tuple[np.ndarray, int]:
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


def _edge_worth_pricing(
    state: RefinementState,
    shot: Rect,
    edge: str,
    cost_integral: np.ndarray,
) -> bool:
    window = state.edge_pricing_window(shot, edge)
    return state.window_cost_from_integral(cost_integral, window) > 0.0


def scalar_improving_moves(
    state: RefinementState,
    cost_integral: np.ndarray,
    active_integral: np.ndarray,
) -> list[_Move]:
    """Best improving ±Δp move per edge, priced one candidate at a time."""
    pitch = state.spec.pitch
    moves: list[_Move] = []
    priced = 0
    for index in range(len(state.shots)):
        shot = state.shots[index]
        for edge in EDGES:
            if not _edge_worth_pricing(state, shot, edge, cost_integral):
                continue
            best: _Move | None = None
            for delta in (pitch, -pitch):
                dcost = state.edge_move_delta_cost(
                    index, edge, delta, cost_integral, active_integral
                )
                if dcost is None:
                    continue
                priced += 1
                if dcost >= -_IMPROVEMENT_EPS:
                    continue
                if best is None or dcost < best.delta_cost:
                    best = _Move(dcost, index, edge, delta)
            if best is not None:
                moves.append(best)
    get_recorder().incr("refine.candidates_priced", priced)
    return moves
