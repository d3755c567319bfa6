"""Mutable working state shared by the refinement moves (paper §4).

Holds the shot list, the incrementally maintained intensity map and the
pixel classification, and provides the *windowed* cost evaluation that
makes greedy edge adjustment affordable: the cost change of an edge move
only depends on pixels within the blur reach of the two shot versions.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.ebeam.intensity_map import IntensityMap, ProfileKey
from repro.geometry.rect import EDGES, Rect
from repro.kernels import get_backend
from repro.mask.constraints import FailureReport, FractureSpec
from repro.mask.pixels import PixelSets
from repro.mask.shape import MaskShape
from repro.obs import get_recorder

_EMPTY = np.zeros(0, dtype=np.float64)

class EdgeMoveCandidate(NamedTuple):
    """One validated candidate edge move, ready for batched pricing.

    ``window`` is the narrow index window where the move changes I_tot
    and ``keys`` the (old, new, fixed) profile keys of its separable
    patch — everything the pricing engine needs without touching the
    (mutable) shot list again.
    """

    index: int
    edge: str
    delta: float
    window: tuple[slice, slice]
    keys: tuple[ProfileKey, ProfileKey, ProfileKey]


class RefinementState:
    """Shots + intensity + pixel classes for one refinement run.

    The optional *region restriction* turns a full-shape refinement into
    a seam repair: ``background`` shots contribute dose but are frozen —
    they are not in :attr:`shots`, so no move module can adjust, remove
    or merge them — and ``active_mask`` demotes every pixel outside the
    mask to don't-care (its cost sign ``S`` becomes 0, the exact
    mechanism the γ band already uses), so the Eq. 5 cost, the failure
    report and every candidate price see only the active region.  To
    keep the restriction sound, every mutation whose dose-effect window
    leaves the mask is forbidden (:meth:`mutation_allowed`) — otherwise
    a move could damage pixels the restricted cost cannot see.  Both
    parameters default to the unrestricted behaviour.
    """

    __slots__ = (
        "shape", "spec", "pixels", "imap", "shots", "background",
        "active_mask",
        "_cost_sign", "_cost_bias", "_cost_base", "_move_memo",
        "_cost_integral", "_active_integral", "_field_scratch", "_box",
    )

    def __init__(
        self,
        shape: MaskShape,
        spec: FractureSpec,
        shots: list[Rect],
        *,
        background: tuple[Rect, ...] | list[Rect] = (),
        active_mask: np.ndarray | None = None,
    ):
        self.shape = shape
        self.spec = spec
        pixels: PixelSets = shape.pixels(spec.gamma)
        if active_mask is not None:
            if active_mask.shape != shape.grid.shape:
                raise ValueError(
                    f"active mask shape {active_mask.shape} != grid "
                    f"shape {shape.grid.shape}"
                )
            pixels = PixelSets(
                on=pixels.on & active_mask,
                off=pixels.off & active_mask,
                band=pixels.band | ~active_mask,
            )
        self.pixels = pixels
        self.active_mask = active_mask
        self.imap = IntensityMap(shape.grid, spec.sigma)
        self.background: tuple[Rect, ...] = tuple(background)
        for shot in self.background:
            self.imap.add(shot)
        self.shots: list[Rect] = list(shots)
        for shot in self.shots:
            self.imap.add(shot)
        # Signed-clamp form of the Eq. 5 cost field: with S = +1 on
        # P_off, −1 on P_on and 0 on don't-care pixels, the per-pixel
        # cost is max(S·I − S·ρ, 0) — an off pixel contributes
        # max(I−ρ, 0), an on pixel max(ρ−I, 0), both exactly the failing
        # gap and 0 otherwise.  ``_cost_base`` holds S·I − S·ρ for the
        # *current* I_tot (refreshed on the touched window after every
        # mutation), so pricing a candidate patch P reduces to
        # Σ max(S·P + base, 0) — three elementwise kernels and a sum,
        # with no boolean masking.
        self._cost_sign = self.pixels.off.astype(np.float64) - self.pixels.on
        self._cost_bias = self._cost_sign * spec.rho
        # Every nonzero cost-field entry lies in one field box
        # ``(r0, r1, c0, c1)`` (half-open pixel bounds): the active
        # mask's bounding box for a restricted state (S is 0 outside the
        # mask, so S·I − S·ρ is exactly 0.0 there), the whole grid
        # otherwise.  The per-iteration field work — base refresh,
        # report, cost/active prefix sums — runs on the box only, so
        # stitch cost scales with the seam area instead of the grid.
        ny, nx = self._cost_sign.shape
        self._box = (0, ny, 0, nx)
        if active_mask is not None:
            rows = np.flatnonzero(active_mask.any(axis=1))
            cols = np.flatnonzero(active_mask.any(axis=0))
            if rows.size:
                self._box = (
                    int(rows[0]), int(rows[-1]) + 1,
                    int(cols[0]), int(cols[-1]) + 1,
                )
                r0, r1, c0, c1 = self._box
                obs = get_recorder()
                obs.gauge("kernels.stitch_grid_px", float(ny * nx))
                obs.gauge(
                    "kernels.stitch_bbox_px", float((r1 - r0) * (c1 - c0))
                )
        r0, r1, c0, c1 = self._box
        # Out-of-box entries are never rewritten, so they must start at
        # their exact value: 0.0 (see above).
        self._cost_base = np.zeros_like(self._cost_sign)
        self._field_scratch = np.empty((r1 - r0, c1 - c0), dtype=np.float64)
        # Candidate geometry memo (windows + profile keys per shot rect)
        # and reused prefix-sum buffers — rebuilt contents every greedy
        # pass, but the allocations are paid once.
        self._move_memo: dict[tuple, tuple] = {}
        self._cost_integral = np.zeros((ny + 1, nx + 1), dtype=np.float64)
        self._active_integral = np.zeros((ny + 1, nx + 1), dtype=np.int32)
        self._refresh_cost_base()

    def _refresh_cost_base(
        self, window: tuple[slice, slice] | None = None
    ) -> None:
        """Recompute ``S·I − S·ρ`` where I_tot changed (or on the box)."""
        if window is None:
            r0, r1, c0, c1 = self._box
            window = (slice(r0, r1), slice(c0, c1))
        base = self._cost_base[window]
        np.multiply(self._cost_sign[window], self.imap.total[window], out=base)
        base -= self._cost_bias[window]

    # -- cost evaluation --------------------------------------------------

    def report(self) -> FailureReport:
        """Full-grid Eq. 4 / Eq. 5 evaluation of the current state.

        Reads the maintained ``_cost_base`` field instead of re-deriving
        everything from I_tot: an on pixel fails iff ``ρ − I > 0`` and an
        off pixel iff ``I − ρ ≥ 0``, which are exactly ``base > 0`` /
        ``base ≥ 0`` (the subtraction happens around ρ, where it is exact
        by Sterbenz' lemma, so the masks match
        :func:`~repro.mask.constraints.failure_report` bit for bit), and
        the Eq. 5 cost is the sum of the clamped base field.  Pixels
        outside the field box are don't-care (S = 0), so they can
        neither fail nor carry cost: the masks are full-size for the
        add/remove consumers, but only their box is computed, and the
        cost is NumPy's pairwise sum of the clamped box.
        """
        r0, r1, c0, c1 = self._box
        box = (slice(r0, r1), slice(c0, c1))
        base_box = self._cost_base[box]
        fail_on = np.zeros(self._cost_base.shape, dtype=bool)
        fail_off = np.zeros(self._cost_base.shape, dtype=bool)
        fail_on[box] = self.pixels.on[box] & (base_box > 0.0)
        fail_off[box] = self.pixels.off[box] & (base_box >= 0.0)
        cost = float(np.maximum(base_box, 0.0, out=self._field_scratch).sum())
        return FailureReport(
            fail_on=fail_on,
            fail_off=fail_off,
            cost=cost,
            _count_on=int(np.count_nonzero(fail_on)),
            _count_off=int(np.count_nonzero(fail_off)),
        )

    def patch_bound(self) -> float:
        """Upper bound on |ΔI| of any single-pitch edge move, anywhere.

        The moved-axis profile difference is ``0.5·(erf((t−a−Δp)/σ) −
        erf((t−a)/σ))`` and erf is (2/√π)-Lipschitz, so no pixel's
        intensity changes by more than ``Δp/(σ·√π)``; the fixed-axis
        profile is < 1.  Piecewise-linear LUT interpolation preserves the
        bound (chord slopes never exceed the true maximum slope).
        """
        return (self.spec.pitch / self.spec.sigma) / math.sqrt(math.pi)

    def active_integral(self) -> np.ndarray:
        """Prefix counts of pixels a ±Δp move could possibly affect.

        A pixel with ``base ≤ −patch_bound`` is clamped to zero cost both
        before and after any single-pitch move (``max(base ± |ΔI|, 0) =
        0`` exactly), so it contributes *exactly nothing* to any Δcost.
        Candidate windows are cropped to the bounding box of the
        remaining "active" pixels — typically a thin band around the
        contour — before the per-pixel scoring runs.  Rebuild per greedy
        pass, like :meth:`cost_integral`.

        int32 is plenty (counts are bounded by the pixel count).  The
        buffer is reused across passes and only valid until the next
        call; its first row/column stay zero.  Only the field box is
        filled: outside it, base ≡ 0 > −patch_bound, so those pixels
        count as "active", but the crop consumes only *differences* of
        the prefix counts, and every candidate window lies inside the
        active mask (gather/mutation guards), where box-local and full
        prefix counts differ by a constant per row/column that cancels.
        """
        return get_backend().active_integral(
            self._cost_base, self._box, -self.patch_bound(),
            self._active_integral,
        )

    def cost_integral(self) -> np.ndarray:
        """Prefix sums of the per-pixel Eq. 5 cost field.

        ``integral[y2, x2] - integral[y1, x2] - integral[y2, x1] +
        integral[y1, x1]`` gives the *current* cost of any index window
        in O(1) — edge pricing then only has to evaluate the candidate
        side.  Rebuild after every committed change (one per refinement
        iteration is enough; GreedyShotEdgeAdjustment does so itself).

        The buffer (zero first row/column) is reused and only valid
        until the next call.  Cost is exactly 0.0 outside the field box
        (S = 0 there), so the prefix sums only cover the box: entries
        above or left of it are exact zeros from the buffer's init, and
        any lookup whose corner lands beyond the box is clamped to the
        box edge (same value — nothing accumulates past it).  Work per
        iteration scales with the box, not the grid.
        """
        return get_backend().cost_integral(
            self._cost_base, self._box, self._cost_integral
        )

    def window_cost_from_integral(
        self, integral: np.ndarray, window: tuple[slice, slice]
    ) -> float:
        """Current Eq. 5 cost of ``window`` from :meth:`cost_integral`.

        Corners past the field box are clamped to its edge: the cost
        field is exactly zero there, so the true prefix value equals the
        value at the edge (beyond it the buffer holds stale zeros).
        """
        r1, c1 = self._box[1], self._box[3]
        y0, y1 = min(window[0].start, r1), min(window[0].stop, r1)
        x0, x1 = min(window[1].start, c1), min(window[1].stop, c1)
        return float(
            integral[y1, x1]
            - integral[y0, x1]
            - integral[y1, x0]
            + integral[y0, x0]
        )

    def edge_pricing_window(
        self, shot: Rect, edge: str
    ) -> tuple[slice, slice]:
        """Window the ±Δp moves of one edge can influence.

        Spans one pitch *outward* of the edge plus the blur reach — the
        geometry the greedy pass uses to skip edges whose neighbourhood
        carries no failure cost (a move can only reduce cost where old
        cost is positive).
        """
        grid = self.imap.grid
        reach = self.imap.reach
        pitch = self.spec.pitch
        if edge == "left":
            return (
                grid.y_span_to_slice(shot.ybl, shot.ytr, reach),
                grid.x_span_to_slice(shot.xbl - pitch, shot.xbl, reach),
            )
        if edge == "right":
            return (
                grid.y_span_to_slice(shot.ybl, shot.ytr, reach),
                grid.x_span_to_slice(shot.xtr, shot.xtr + pitch, reach),
            )
        if edge == "bottom":
            return (
                grid.y_span_to_slice(shot.ybl - pitch, shot.ybl, reach),
                grid.x_span_to_slice(shot.xbl, shot.xtr, reach),
            )
        return (
            grid.y_span_to_slice(shot.ytr, shot.ytr + pitch, reach),
            grid.x_span_to_slice(shot.xbl, shot.xtr, reach),
        )

    def _move_geometry(self, shot: Rect) -> tuple:
        """The ±Δp edge moves of ``shot``, from the per-rectangle memo.

        One entry per rectangle: ``(edge, region, moves)`` per edge, with
        ``region`` the edge's pricing window as ``(y0, y1, x0, x1)``
        clamped to the field box, and ``moves`` the ``(delta, window,
        (k_old, k_new, k_fixed))`` of each ±Δp move that keeps the shot
        at or above L_min.  ``window`` is the narrow band where the move
        changes I_tot and the keys name the profiles of its separable
        patch.  Pricing and the commit both read this entry, so the
        committed patch is the priced patch by construction.

        Built with direct scalar math — no intermediate :class:`Rect` per
        candidate — and memoized per shot rectangle: pure geometry, so
        no invalidation is ever needed.
        """
        key = (shot.xbl, shot.ybl, shot.xtr, shot.ytr)
        memo = self._move_memo
        groups = memo.get(key)
        if groups is not None:
            return groups
        if len(memo) >= 4096:
            memo.clear()
        pitch = self.spec.pitch
        lmin = self.spec.lmin
        grid = self.imap.grid
        reach = self.imap.reach
        box_rows, box_cols = self._box[1], self._box[3]
        xbl, ybl, xtr, ytr = shot.xbl, shot.ybl, shot.xtr, shot.ytr
        groups: list[tuple] = []
        for edge in EDGES:
            # Left/right moves change the x profile, bottom/top the y one;
            # the other axis is fixed and must already meet L_min.
            horizontal = edge in ("left", "right")
            if horizontal:
                axis, lo, hi, to_slice = "x", xbl, xtr, grid.x_span_to_slice
                fixed_axis = ("y", ybl, ytr)
            else:
                axis, lo, hi, to_slice = "y", ybl, ytr, grid.y_span_to_slice
                fixed_axis = ("x", xbl, xtr)
            if fixed_axis[2] - fixed_axis[1] < lmin:
                continue
            ys, xs = self.edge_pricing_window(shot, edge)
            fixed = ys if horizontal else xs
            k_fixed = fixed_axis + (fixed.start, fixed.stop)
            low_edge = edge in ("left", "bottom")
            coord = lo if low_edge else hi
            moves: list[tuple] = []
            for delta in (pitch, -pitch):
                moved = coord + delta
                new_lo, new_hi = (moved, hi) if low_edge else (lo, moved)
                if new_hi - new_lo < lmin:
                    continue
                span = to_slice(min(coord, moved), max(coord, moved), reach)
                ends = (span.start, span.stop)
                moves.append((
                    delta,
                    (fixed, span) if horizontal else (span, fixed),
                    (
                        (axis, lo, hi) + ends,
                        (axis, new_lo, new_hi) + ends,
                        k_fixed,
                    ),
                ))
            region = (
                min(ys.start, box_rows), min(ys.stop, box_rows),
                min(xs.start, box_cols), min(xs.stop, box_cols),
            )
            groups.append((edge, region, tuple(moves)))
        groups = memo[key] = tuple(groups)
        return groups

    def gather_edge_moves(
        self, cost_integral: np.ndarray
    ) -> list[EdgeMoveCandidate]:
        """All valid ±Δp edge-move candidates worth pricing, in (shot,
        edge, +Δp, −Δp) order.

        Candidate geometry comes from the per-rectangle memo (most shots
        do not move between greedy passes); only the skip test — edges
        whose pricing region carries no failure cost can never yield an
        accepted move — reads the current cost integral.  In
        region-restricted mode, moves whose effect window leaves the
        active mask are dropped before pricing (they could never be
        applied — see :meth:`mutation_allowed` — so pricing them would
        only inflate the candidate count the seam stitch is supposed to
        keep proportional to the seam area).
        """
        mask = self.active_mask
        candidates: list[EdgeMoveCandidate] = []
        append = candidates.append
        for index, shot in enumerate(self.shots):
            for edge, (y0, y1, x0, x1), moves in self._move_geometry(shot):
                if (
                    cost_integral[y1, x1]
                    - cost_integral[y0, x1]
                    - cost_integral[y1, x0]
                    + cost_integral[y0, x0]
                ) <= 0.0:
                    continue
                for delta, window, keys in moves:
                    if mask is not None and not mask[window].all():
                        continue
                    append(EdgeMoveCandidate(index, edge, delta, window, keys))
        return candidates

    def price_edge_moves(
        self,
        candidates: list[EdgeMoveCandidate],
        cost_integral: np.ndarray,
        active_integral: np.ndarray,
    ) -> np.ndarray:
        """Δcost of every candidate, priced in one batch.

        All 1-D profile arguments of the sweep are concatenated and
        interpolated in a single LUT evaluation (via the profile cache);
        the two separable factors of each candidate's patch are gathered,
        and one :meth:`~repro.kernels.backend.KernelBackend.clamped_band_sums`
        call crops every window to its active sub-band, scores it and
        subtracts its current cost — in the compiled kernel, or in the
        base-class NumPy loop when the kernel is unavailable (same bits).
        """
        imap = self.imap
        get_recorder().incr("intensity.edge_deltas", len(candidates))
        imap.ensure_profiles(key for c in candidates for key in c.keys)
        delta_profile = imap.delta_profile
        fixed_profile = imap.profile
        bounds: list[int] = []
        # The empty leading part keeps np.concatenate valid for a batch
        # with no candidates, which still goes to the backend.
        row_parts: list[np.ndarray] = [_EMPTY]
        col_parts: list[np.ndarray] = [_EMPTY]
        for _, edge, _, (ys, xs), (k_old, k_new, k_fixed) in candidates:
            bounds += (ys.start, ys.stop, xs.start, xs.stop)
            delta = delta_profile(k_old, k_new)
            if edge == "left" or edge == "right":
                row_parts.append(fixed_profile(k_fixed))
                col_parts.append(delta)
            else:
                row_parts.append(delta)
                col_parts.append(fixed_profile(k_fixed))
        return get_backend().clamped_band_sums(
            np.array(bounds, dtype=np.int64).reshape(-1, 4),
            np.concatenate(row_parts),
            np.concatenate(col_parts),
            self._cost_sign,
            self._cost_base,
            active_integral,
            cost_integral,
        )

    # -- mutation -----------------------------------------------------------

    def mutation_allowed(self, window: tuple[slice, slice]) -> bool:
        """True when a mutation's dose-effect window is fully scored.

        Unrestricted refinements allow everything.  With an active mask,
        a mutation is only sound when every pixel its dose change can
        touch lies inside the mask — a window that leaks outside could
        damage pixels the restricted cost treats as don't-care, damage
        that would only surface in the full-shape check afterwards.
        """
        if self.active_mask is None:
            return True
        return bool(self.active_mask[window].all())

    def apply_edge_move(self, index: int, edge: str, delta: float) -> bool:
        """Commit one ±Δp edge move; returns False if it is not valid.

        The band update is the memo entry :meth:`gather_edge_moves`
        prices for the shot's current rectangle — same window, same
        profiles, same outer product — so an accepted Δcost is the
        realized cost change.  A move with no entry (the shot would fall
        below L_min or invert) or whose window leaves the active mask is
        refused.
        """
        if abs(delta) != self.spec.pitch:
            raise ValueError(f"edge moves are ±{self.spec.pitch}, not {delta}")
        shot = self.shots[index]
        entry = next(
            (
                (window, keys)
                for move_edge, _, moves in self._move_geometry(shot)
                if move_edge == edge
                for move_delta, window, keys in moves
                if move_delta == delta
            ),
            None,
        )
        if entry is None or not self.mutation_allowed(entry[0]):
            return False
        window, (k_old, k_new, k_fixed) = entry
        profile = self.imap.profile
        old, new, fixed = profile(k_old), profile(k_new), profile(k_fixed)
        if edge == "left" or edge == "right":
            self.imap.add_separable(window, fixed, new - old)
        else:
            self.imap.add_separable(window, new - old, fixed)
        self._refresh_cost_base(window)
        self.shots[index] = shot.moved_edge(edge, delta)
        return True

    def replace_shot(self, index: int, new: Rect) -> None:
        old = self.shots[index]
        window = self.imap.union_window(old, new)
        self.imap.replace(old, new, window)
        self._refresh_cost_base(window)
        self.shots[index] = new

    def add_shot(self, shot: Rect) -> None:
        window = self.imap.window_of(shot)
        self.imap.add(shot, window)
        self._refresh_cost_base(window)
        self.shots.append(shot)

    def remove_shot(self, index: int) -> Rect:
        shot = self.shots.pop(index)
        window = self.imap.window_of(shot)
        self.imap.remove(shot, window)
        self._refresh_cost_base(window)
        return shot

    def snapshot(self) -> list[Rect]:
        return list(self.shots)

    def restore(self, shots: list[Rect]) -> None:
        """Reset to a previously snapshotted shot list."""
        self.shots = list(shots)
        self.imap.rebuild(list(self.background) + self.shots)
        self._refresh_cost_base()
