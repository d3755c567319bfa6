"""Unit tests for the incremental intensity map."""

import numpy as np
import pytest

from repro.ebeam.intensity import shot_intensity
from repro.ebeam.intensity_map import IntensityMap
from repro.geometry.raster import PixelGrid
from repro.geometry.rect import Rect
from tests.oracles import edge_move_patch, edge_move_window

SIGMA = 6.25


@pytest.fixture()
def grid() -> PixelGrid:
    return PixelGrid(0.0, 0.0, 1.0, 100, 100)


@pytest.fixture()
def imap(grid) -> IntensityMap:
    return IntensityMap(grid, SIGMA)


class TestAddRemove:
    def test_invalid_sigma(self, grid):
        with pytest.raises(ValueError):
            IntensityMap(grid, 0.0)

    def test_add_matches_direct_evaluation(self, imap, grid):
        shot = Rect(20, 20, 60, 50)
        imap.add(shot)
        direct = shot_intensity(shot, grid, SIGMA)
        assert np.max(np.abs(imap.total - direct)) < 1e-7

    def test_add_then_remove_is_identity(self, imap):
        shot = Rect(20, 20, 60, 50)
        imap.add(shot)
        imap.remove(shot)
        assert np.max(np.abs(imap.total)) < 1e-12

    def test_additivity_of_two_shots(self, imap, grid):
        a, b = Rect(10, 10, 40, 40), Rect(30, 30, 70, 70)
        imap.add(a)
        imap.add(b)
        direct = shot_intensity(a, grid, SIGMA) + shot_intensity(b, grid, SIGMA)
        assert np.max(np.abs(imap.total - direct)) < 1e-7


class TestReplaceAndRebuild:
    def test_replace_equals_remove_add(self, grid):
        old, new = Rect(20, 20, 50, 50), Rect(21, 20, 50, 50)
        a = IntensityMap(grid, SIGMA)
        a.add(old)
        a.replace(old, new)
        b = IntensityMap(grid, SIGMA)
        b.add(new)
        assert np.max(np.abs(a.total - b.total)) < 1e-7

    def test_incremental_drift_bounded(self, grid):
        """Hundreds of incremental updates stay within float tolerance of
        a from-scratch rebuild (the 4σ reach guarantee)."""
        rng = np.random.default_rng(2)
        imap = IntensityMap(grid, SIGMA)
        shots = []
        for _ in range(30):
            x0, y0 = rng.uniform(5, 60, 2)
            shot = Rect(x0, y0, x0 + rng.uniform(10, 30), y0 + rng.uniform(10, 30))
            shots.append(shot)
            imap.add(shot)
        for _ in range(200):
            index = int(rng.integers(len(shots)))
            moved = shots[index].translated(rng.uniform(-1, 1), rng.uniform(-1, 1))
            imap.replace(shots[index], moved)
            shots[index] = moved
        reference = IntensityMap(grid, SIGMA)
        reference.rebuild(shots)
        assert np.max(np.abs(imap.total - reference.total)) < 1e-6

    def test_rebuild_clears_previous_state(self, imap):
        imap.add(Rect(10, 10, 30, 30))
        imap.rebuild([Rect(50, 50, 80, 80)])
        assert imap.total[20, 20] < 1e-6
        assert imap.total[65, 65] > 0.9


class TestCandidateEvaluation:
    """The ``Rect``-derived edge-move oracle of ``tests/oracles.py``
    against the map's own whole-shot updates."""

    def test_edge_move_delta_matches_full_difference(self, imap, grid):
        old = Rect(20, 20, 50, 50)
        new = old.moved_edge("right", 1.0)
        imap.add(old)
        window, delta = edge_move_patch(imap, old, new, "right")
        before = imap.total[window].copy()
        imap.replace(old, new)
        assert np.max(np.abs((before + delta) - imap.total[window])) < 1e-9

    def test_edge_move_window_is_narrow(self, imap):
        old = Rect(20, 20, 80, 80)
        new = old.moved_edge("left", 1.0)
        ys, xs = edge_move_window(imap, old, new, "left")
        full_ys, full_xs = imap.window_of(old)
        assert (xs.stop - xs.start) < (full_xs.stop - full_xs.start)

    def test_vertical_edge_delta(self, imap):
        old = Rect(20, 20, 50, 50)
        new = old.moved_edge("top", -1.0)
        imap.add(old)
        window, delta = edge_move_patch(imap, old, new, "top")
        assert delta.max() <= 1e-12  # shrinking only removes dose
        assert delta.min() < -1e-4

    def test_add_separable_adds_outer_product(self, imap):
        old = Rect(20, 20, 50, 50)
        new = old.moved_edge("left", -1.0)
        imap.add(old)
        window, delta = edge_move_patch(imap, old, new, "left")
        expect = imap.total.copy()
        expect[window] += delta
        ys, xs = window
        moved = imap.profile(("x", new.xbl, new.xtr, xs.start, xs.stop)) - (
            imap.profile(("x", old.xbl, old.xtr, xs.start, xs.stop))
        )
        fixed = imap.profile(("y", old.ybl, old.ytr, ys.start, ys.stop))
        imap.add_separable(window, fixed, moved)
        assert np.array_equal(imap.total, expect)
