"""Gates for the seam-band field box of a region-restricted state.

A region-restricted ``RefinementState`` keeps its per-iteration cost and
active fields on the active mask's bounding box (its *field box*; an
unrestricted state's box is the whole grid).  The signed weight is
exactly zero outside the mask, so everything observable — failure
masks, integral lookups, candidate gathering, candidate prices and the
shots a stitch produces — must equal what a fresh full-grid evaluation
from I_tot gives.  Masks, lookups, gathered candidates and shots are
compared exactly; cost *sums* with 1e-12 closeness (the box and the
grid are summed in different pairwise groupings).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.fracture.graph_color import approximate_fracture
from repro.fracture.pipeline import ModelBasedFracturer, RefineConfig
from repro.fracture.refine import RefineParams
from repro.fracture.state import RefinementState
from repro.fracture.windowed import WindowedFracturer
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import EDGES, Rect
from repro.kernels import use_backend
from repro.kernels.numpy_backend import NumpyBackend
from repro.mask.constraints import failure_report
from repro.mask.shape import MaskShape
from tests.oracles import ScalarOracle, edge_move_delta_cost, make_edge_move_candidate


@pytest.fixture()
def seam_state(l_shape, spec) -> RefinementState:
    # An active region whose box stops short of the grid on three sides
    # yet still admits candidate moves on the L's lower bar.
    ny, nx = l_shape.grid.shape
    mask = np.zeros((ny, nx), dtype=bool)
    mask[: ny * 7 // 10, 2 : nx - 2] = True
    shots, _ = approximate_fracture(l_shape, spec)
    return RefinementState(l_shape, spec, shots, active_mask=mask)


def _fresh_integrals(state: RefinementState) -> tuple[np.ndarray, np.ndarray]:
    """Full-grid cost and active prefix sums computed from I_tot alone."""
    base = state._cost_sign * state.imap.total - state._cost_bias
    ny, nx = base.shape
    cost = np.zeros((ny + 1, nx + 1))
    cost[1:, 1:] = np.maximum(base, 0.0).cumsum(axis=0).cumsum(axis=1)
    active = np.zeros((ny + 1, nx + 1), dtype=np.int32)
    active[1:, 1:] = (base > -state.patch_bound()).cumsum(axis=0).cumsum(axis=1)
    return cost, active


def _lookup(integral: np.ndarray, window) -> float:
    ys, xs = window
    return float(
        integral[ys.stop, xs.stop]
        - integral[ys.start, xs.stop]
        - integral[ys.stop, xs.start]
        + integral[ys.start, xs.start]
    )


class TestCroppedStateMatchesFull:
    def test_field_box_is_active_bbox(self, seam_state, l_shape, spec):
        mask = seam_state.active_mask
        rows = np.flatnonzero(mask.any(axis=1))
        cols = np.flatnonzero(mask.any(axis=0))
        r0, r1, c0, c1 = seam_state._box
        assert (r0, r1, c0, c1) == (rows[0], rows[-1] + 1, cols[0], cols[-1] + 1)
        assert (r1 - r0) * (c1 - c0) < mask.size
        full = RefinementState(l_shape, spec, seam_state.shots)
        assert full._box == (0, mask.shape[0], 0, mask.shape[1])

    def test_reports_identical(self, seam_state, spec):
        report = seam_state.report()
        fresh = failure_report(seam_state.imap.total, seam_state.pixels, spec.rho)
        assert np.array_equal(report.fail_on, fresh.fail_on)
        assert np.array_equal(report.fail_off, fresh.fail_off)
        assert math.isclose(report.cost, fresh.cost, rel_tol=1e-12, abs_tol=1e-12)

    def test_integral_lookups_identical_inside_mask(self, seam_state):
        # Zeros outside the box add nothing, so the box-local prefix sums
        # equal the fresh full-grid ones bit for bit wherever a lookup
        # reads them (corners past the box are clamped to its edge).
        integral = seam_state.cost_integral()
        fresh, _ = _fresh_integrals(seam_state)
        rng = np.random.default_rng(42)
        ny, nx = seam_state.pixels.on.shape
        for _ in range(50):
            y0 = int(rng.integers(0, ny - 1))
            x0 = int(rng.integers(0, nx - 1))
            y1 = int(rng.integers(y0 + 1, ny + 1))
            x1 = int(rng.integers(x0 + 1, nx + 1))
            window = (slice(y0, y1), slice(x0, x1))
            assert seam_state.window_cost_from_integral(integral, window) == \
                _lookup(fresh, window)

    def test_gather_and_prices_identical(self, seam_state, spec):
        state = seam_state
        cost_integral = state.cost_integral().copy()
        active_integral = state.active_integral().copy()
        fresh_cost, fresh_active = _fresh_integrals(state)
        candidates = state.gather_edge_moves(cost_integral)
        expect = [
            candidate
            for index, shot in enumerate(state.shots)
            for edge in EDGES
            if _lookup(fresh_cost, state.edge_pricing_window(shot, edge)) > 0.0
            for delta in (spec.pitch, -spec.pitch)
            if (candidate := make_edge_move_candidate(state, index, edge, delta))
        ]
        assert candidates and candidates == expect
        prices = {}
        for name, backend in (("numpy", NumpyBackend()), ("scalar", ScalarOracle())):
            with use_backend(backend):
                prices[name] = state.price_edge_moves(
                    candidates, cost_integral, active_integral
                )
        assert np.array_equal(prices["numpy"], prices["scalar"])
        for candidate, price in zip(candidates, prices["numpy"]):
            oracle = edge_move_delta_cost(
                state, candidate.index, candidate.edge, candidate.delta,
                fresh_cost, fresh_active,
            )
            assert abs(price - oracle) <= 1e-12


    def test_pricing_region_past_box_is_clamped(self, rect_shape, spec):
        # The active region is exactly the window of the right edge's
        # inward move, so that move is a candidate while the edge's
        # pricing region (the outward move's window) reaches one column
        # past the field box; its cost must still be read, clamped.
        shot = Rect(0.0, 0.0, 50.0, 40.0)  # short of the 60 nm target
        grid = rect_shape.grid
        reach = 4.0 * spec.sigma
        inward = (
            grid.y_span_to_slice(shot.ybl, shot.ytr, reach),
            grid.x_span_to_slice(shot.xtr - spec.pitch, shot.xtr, reach),
        )
        mask = np.zeros(grid.shape, dtype=bool)
        mask[inward] = True
        state = RefinementState(rect_shape, spec, [shot], active_mask=mask)
        region = state.edge_pricing_window(shot, "right")
        assert region[1].stop == state._box[3] + 1
        candidates = state.gather_edge_moves(state.cost_integral())
        assert [(c.edge, c.delta) for c in candidates] == [("right", -spec.pitch)]
        assert candidates[0].window == inward


class TestWindowedStitchShotIdentity:
    def test_stitch_identical_across_backends(self, spec):
        # Wide enough for several tiles so the seam-band stitch runs.
        polygon = Polygon(
            [Point(0, 0), Point(500, 0), Point(500, 40), Point(0, 40)]
        )
        bar = MaskShape.from_polygon(
            polygon, pitch=spec.pitch, margin=spec.grid_margin, name="bar"
        )
        results = {}
        for name, backend in (("numpy", NumpyBackend()), ("scalar", ScalarOracle())):
            inner = ModelBasedFracturer(
                config=RefineConfig(params=RefineParams(nmax=6, nh=3))
            )
            windowed = WindowedFracturer(inner, window_nm=150.0)
            with use_backend(backend):
                shots = windowed.fracture_shots(bar, spec)
            results[name] = [s.as_tuple() for s in shots]
        assert results["numpy"] == results["scalar"]
