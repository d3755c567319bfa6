"""Hypothesis property tests for refinement invariants.

These run Algorithm 1 components on randomized small instances and check
the contracts the rest of the library depends on: minimum shot size is
never violated, merging never loses coverage bookkeeping, the incremental
intensity stays consistent with a rebuild, and refinement never returns
something worse than its input.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fracture.merge import merge_shots
from repro.fracture.refine import RefineParams, refine
from repro.fracture.state import RefinementState
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec, check_solution
from repro.mask.shape import MaskShape
from tests.oracles import window_cost

SPEC = FractureSpec()


def _target() -> MaskShape:
    polygon = Polygon([(0, 0), (90, 0), (90, 60), (0, 60)])
    return MaskShape.from_polygon(polygon, margin=SPEC.grid_margin, name="t")


_SHARED_TARGET = _target()


@st.composite
def shot_lists(draw) -> list[Rect]:
    n = draw(st.integers(min_value=1, max_value=5))
    shots = []
    for _ in range(n):
        x = draw(st.floats(-5, 70, allow_nan=False))
        y = draw(st.floats(-5, 40, allow_nan=False))
        w = draw(st.floats(SPEC.lmin, 70.0))
        h = draw(st.floats(SPEC.lmin, 50.0))
        shots.append(Rect(round(x), round(y), round(x + w), round(y + h)))
    return shots


class TestRefinementInvariants:
    @given(shot_lists())
    @settings(max_examples=15, deadline=None)
    def test_refine_never_worse_than_input(self, shots):
        before = check_solution(shots, _SHARED_TARGET, SPEC)
        refined, _trace = refine(
            _SHARED_TARGET, SPEC, shots, RefineParams(nmax=40)
        )
        after = check_solution(refined, _SHARED_TARGET, SPEC)
        assert after.total_failing <= before.total_failing

    @given(shot_lists())
    @settings(max_examples=15, deadline=None)
    def test_min_size_preserved_through_refinement(self, shots):
        refined, _ = refine(_SHARED_TARGET, SPEC, shots, RefineParams(nmax=40))
        assert all(s.meets_min_size(SPEC.lmin - 1e-9) for s in refined)

    @given(shot_lists())
    @settings(max_examples=15, deadline=None)
    def test_merge_reduces_count_and_keeps_intensity_consistent(self, shots):
        state = RefinementState(_SHARED_TARGET, SPEC, shots)
        merges = merge_shots(state)
        assert len(state.shots) == len(shots) - merges
        reference = RefinementState(_SHARED_TARGET, SPEC, state.shots)
        assert np.max(np.abs(state.imap.total - reference.imap.total)) < 1e-6

    @given(shot_lists())
    @settings(max_examples=15, deadline=None)
    def test_state_report_matches_independent_checker(self, shots):
        state = RefinementState(_SHARED_TARGET, SPEC, shots)
        internal = state.report()
        external = check_solution(shots, _SHARED_TARGET, SPEC)
        assert internal.total_failing == external.total_failing
        assert abs(internal.cost - external.cost) < 1e-6

    @given(shot_lists(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_cost_integral_matches_window_cost(self, shots, seed):
        state = RefinementState(_SHARED_TARGET, SPEC, shots)
        integral = state.cost_integral()
        rng = np.random.default_rng(seed)
        ny, nx = state.imap.total.shape
        for _ in range(5):
            y1, y2 = sorted(rng.integers(0, ny + 1, 2))
            x1, x2 = sorted(rng.integers(0, nx + 1, 2))
            window = (slice(int(y1), int(y2)), slice(int(x1), int(x2)))
            direct = window_cost(state, window, state.imap.total[window])
            fast = state.window_cost_from_integral(integral, window)
            assert abs(direct - fast) < 1e-6
