"""Reference implementations the equivalence tests gate the library on.

None of this is reachable from library code; each piece is the plain,
obviously-correct version of a hot path, kept here so the optimized
path can be compared against it bit for bit:

* :class:`ScalarOracle` — a kernel backend routing every hot spot
  through the oracle paths: the per-pixel raster union–find labeling,
  the per-label ``np.nonzero`` bounding-box scan, and the base class's
  per-candidate NumPy pricing loop and ``np.cumsum`` prefix sums.
  Install it with ``repro.kernels.use_backend(ScalarOracle())``.
* The per-candidate edge-move oracle — :func:`edge_move_delta_cost` and
  its parts (:func:`make_edge_move_candidate`, :func:`edge_move_patch`,
  :func:`window_cost`, :func:`score_move_patch`, :func:`crop_to_active`).
  It derives every window and profile key from :class:`Rect` geometry
  (``moved_edge`` + ``meets_min_size`` + a padded band rectangle),
  independently of the per-rectangle memo that
  :meth:`RefinementState.gather_edge_moves` prices and
  :meth:`RefinementState.apply_edge_move` commits, so comparing the two
  checks the memo.
* :func:`scalar_improving_moves` — the per-candidate pricing pass of
  greedy edge adjustment, one :func:`edge_move_delta_cost` call per ±Δp
  move.  Monkeypatched over
  ``repro.fracture.edge_adjust._batched_improving_moves`` it runs a whole
  refinement on the scalar engine.
"""

from __future__ import annotations

import numpy as np

from repro.ebeam.intensity_map import IntensityMap, ProfileKey
from repro.fracture.edge_adjust import _IMPROVEMENT_EPS, _Move
from repro.fracture.state import EdgeMoveCandidate, RefinementState
from repro.geometry.labeling import label_components_scalar
from repro.geometry.rect import EDGES, Rect
from repro.kernels.backend import KernelBackend
from repro.obs import get_recorder


class ScalarOracle(KernelBackend):
    name = "scalar"

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
        }


# -- per-candidate edge-move oracle -------------------------------------------

Window = tuple[slice, slice]


def edge_move_window(imap: IntensityMap, old: Rect, new: Rect, edge: str) -> Window:
    """Window where a single-edge move changes the intensity.

    For a vertical-edge move only the x profile changes, and only within
    the blur reach of the swept strip — a narrow band spanning the
    shot's full (padded) height, and vice versa for horizontal edges.
    """
    if edge in ("left", "right"):
        x_old = old.edge_coordinate(edge)
        x_new = new.edge_coordinate(edge)
        band = Rect(
            min(x_old, x_new), min(old.ybl, new.ybl),
            max(x_old, x_new), max(old.ytr, new.ytr),
        )
    else:
        y_old = old.edge_coordinate(edge)
        y_new = new.edge_coordinate(edge)
        band = Rect(
            min(old.xbl, new.xbl), min(y_old, y_new),
            max(old.xtr, new.xtr), max(y_old, y_new),
        )
    return imap.grid.rect_to_slices(band, margin=imap.reach)


def edge_move_profile_keys(
    old: Rect, new: Rect, edge: str, window: Window
) -> tuple[ProfileKey, ProfileKey, ProfileKey]:
    """The (old, new, fixed) profile keys of an edge move's patch."""
    ys, xs = window
    if edge in ("left", "right"):
        return (
            ("x", old.xbl, old.xtr, xs.start, xs.stop),
            ("x", new.xbl, new.xtr, xs.start, xs.stop),
            ("y", old.ybl, old.ytr, ys.start, ys.stop),
        )
    return (
        ("y", old.ybl, old.ytr, ys.start, ys.stop),
        ("y", new.ybl, new.ytr, ys.start, ys.stop),
        ("x", old.xbl, old.xtr, xs.start, xs.stop),
    )


def edge_move_patch(
    imap: IntensityMap, old: Rect, new: Rect, edge: str
) -> tuple[Window, np.ndarray]:
    """Intensity change of a single-edge move, on its narrow window:
    (moved-axis profile difference) × (unchanged-axis profile)."""
    window = edge_move_window(imap, old, new, edge)
    k_old, k_new, k_fixed = edge_move_profile_keys(old, new, edge, window)
    moved = imap.profile(k_new) - imap.profile(k_old)
    fixed = imap.profile(k_fixed)
    if edge in ("left", "right"):
        return window, fixed[:, None] * moved[None, :]
    return window, moved[:, None] * fixed[None, :]


def _valid_move(
    state: RefinementState, index: int, edge: str, delta: float
) -> tuple[Rect, Rect, Window] | None:
    """``(shot, moved shot, window)``, or None when the move inverts the
    shot, breaks L_min or leaves the active mask."""
    shot = state.shots[index]
    try:
        moved = shot.moved_edge(edge, delta)
    except ValueError:
        return None
    if not moved.meets_min_size(state.spec.lmin):
        return None
    window = edge_move_window(state.imap, shot, moved, edge)
    if not state.mutation_allowed(window):
        return None
    return shot, moved, window


def make_edge_move_candidate(
    state: RefinementState, index: int, edge: str, delta: float
) -> EdgeMoveCandidate | None:
    """The candidate the library should gather for this move (or None)."""
    valid = _valid_move(state, index, edge, delta)
    if valid is None:
        return None
    shot, moved, window = valid
    keys = edge_move_profile_keys(shot, moved, edge, window)
    return EdgeMoveCandidate(index, edge, delta, window, keys)


def window_cost(
    state: RefinementState, window: Window, total_window: np.ndarray
) -> float:
    """Eq. 5 cost of ``total_window`` (I_tot values) on one window."""
    clamped = total_window * state._cost_sign[window]
    clamped -= state._cost_bias[window]
    np.maximum(clamped, 0.0, out=clamped)
    return float(clamped.sum())


def score_move_patch(
    state: RefinementState, window: Window, patch_delta: np.ndarray
) -> float:
    """Eq. 5 cost of ``I_tot + patch_delta`` on the window (destroys
    ``patch_delta``), in the batched engine's operation order."""
    patch_delta *= state._cost_sign[window]
    patch_delta += state._cost_base[window]
    np.maximum(patch_delta, 0.0, out=patch_delta)
    return float(patch_delta.sum())


def crop_to_active(
    active_integral: np.ndarray, window: Window
) -> tuple[int, int, int, int] | None:
    """Row/column sub-range ``(r0, r1, c0, c1)`` of ``window`` holding
    every active pixel, or None when it holds none (Δcost exactly 0)."""
    ys, xs = window
    rowcum = (
        active_integral[ys.start : ys.stop + 1, xs.stop]
        - active_integral[ys.start : ys.stop + 1, xs.start]
    )
    if rowcum[-1] == rowcum[0]:
        return None
    r0 = int(rowcum.searchsorted(rowcum[0], side="right")) - 1
    r1 = int(rowcum.searchsorted(rowcum[-1], side="left"))
    colcum = (
        active_integral[ys.stop, xs.start : xs.stop + 1]
        - active_integral[ys.start, xs.start : xs.stop + 1]
    )
    c0 = int(colcum.searchsorted(colcum[0], side="right")) - 1
    c1 = int(colcum.searchsorted(colcum[-1], side="left"))
    return r0, r1, c0, c1


def edge_move_delta_cost(
    state: RefinementState,
    index: int,
    edge: str,
    delta: float,
    cost_integral: np.ndarray | None = None,
    active_integral: np.ndarray | None = None,
) -> float | None:
    """Cost change of moving one edge of shot ``index`` by ``delta``.

    None for moves the state would refuse.  ``cost_integral`` makes the
    old-cost side an O(1) lookup (else it is summed from I_tot);
    ``active_integral`` (only valid for ``|delta| ≤ Δp``) crops the
    scoring to the active sub-window.
    """
    valid = _valid_move(state, index, edge, delta)
    if valid is None:
        return None
    shot, moved, _ = valid
    window, patch_delta = edge_move_patch(state.imap, shot, moved, edge)
    if active_integral is not None:
        crop = crop_to_active(active_integral, window)
        if crop is None:
            return 0.0
        r0, r1, c0, c1 = crop
        ys, xs = window
        window = (
            slice(ys.start + r0, ys.start + r1),
            slice(xs.start + c0, xs.start + c1),
        )
        # Contiguous copy so the clamped sum reduces in the same order
        # as the batched engine's scratch segment.
        patch_delta = np.ascontiguousarray(patch_delta[r0:r1, c0:c1])
    if cost_integral is not None:
        old_cost = state.window_cost_from_integral(cost_integral, window)
    else:
        old_cost = window_cost(state, window, state.imap.total[window])
    return score_move_patch(state, window, patch_delta) - old_cost


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
                dcost = edge_move_delta_cost(
                    state, index, edge, delta, cost_integral, active_integral
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
