"""Unit tests for the refinement working state."""

import numpy as np
import pytest

from repro.bench.shapes import ilt_suite
from repro.fracture.edge_adjust import greedy_shot_edge_adjustment
from repro.fracture.graph_color import approximate_fracture
from repro.fracture.state import RefinementState
from repro.geometry.rect import EDGES, Rect
from tests.oracles import (
    edge_move_delta_cost,
    edge_move_patch,
    make_edge_move_candidate,
    window_cost,
)


@pytest.fixture()
def state(rect_shape, spec) -> RefinementState:
    return RefinementState(rect_shape, spec, [Rect(0, 0, 60, 40)])


class TestReports:
    def test_initial_report_consistent_with_check(self, state, rect_shape, spec):
        from repro.mask.constraints import check_solution

        internal = state.report()
        external = check_solution(state.shots, rect_shape, spec)
        assert internal.total_failing == external.total_failing
        assert np.isclose(internal.cost, external.cost)

    def test_window_cost_matches_global(self, state, spec):
        full_window = (slice(0, state.imap.total.shape[0]),
                       slice(0, state.imap.total.shape[1]))
        cost = window_cost(state, full_window, state.imap.total)
        assert np.isclose(cost, state.report().cost)


class TestEdgeMoves:
    def test_invalid_move_returns_none(self, state, spec):
        # Shrinking a min-size shot below Lmin is rejected.
        state.shots[0] = Rect(0, 0, spec.lmin, 40)
        state.imap.rebuild(state.shots)
        assert edge_move_delta_cost(state, 0, "left", spec.pitch) is None

    def test_delta_cost_matches_committed_cost(self, state):
        before = state.report().cost
        delta = edge_move_delta_cost(state, 0, "right", 1.0)
        assert delta is not None
        assert state.apply_edge_move(0, "right", 1.0)
        after = state.report().cost
        assert np.isclose(after - before, delta, atol=1e-6)

    def test_apply_edge_move_updates_shot(self, state):
        original = state.shots[0]
        state.apply_edge_move(0, "top", 1.0)
        assert state.shots[0].ytr == original.ytr + 1.0

    def test_apply_invalid_move_refused(self, state, spec):
        # Below L_min: refused by the commit, the gather and the oracle.
        state.shots[0] = Rect(0, 0, spec.lmin, 40)
        state.imap.rebuild(state.shots)
        before = state.imap.total.copy()
        assert not state.apply_edge_move(0, "left", spec.pitch)
        assert not state.apply_edge_move(0, "right", -spec.pitch)
        assert make_edge_move_candidate(state, 0, "left", spec.pitch) is None
        assert state.shots[0] == Rect(0, 0, spec.lmin, 40)
        assert np.array_equal(state.imap.total, before)
        # The fixed axis below L_min rules out its edges' moves too.
        state.shots[0] = Rect(0, 0, 40, spec.lmin - spec.pitch)
        assert not state.apply_edge_move(0, "right", spec.pitch)

    def test_apply_rejects_non_pitch_delta(self, state, spec):
        with pytest.raises(ValueError):
            state.apply_edge_move(0, "right", 2 * spec.pitch)


def _bits(values: np.ndarray) -> np.ndarray:
    return values.view(np.int64)


class TestCommitPath:
    """The committed band update against the ``Rect``-derived oracle."""

    @pytest.fixture(scope="class")
    def ilt1_state(self, spec) -> RefinementState:
        shape = ilt_suite()[0]
        shots, _ = approximate_fracture(shape, spec)
        state = RefinementState(shape, spec, shots)
        for _ in range(3):
            greedy_shot_edge_adjustment(state)
        return state

    def test_commit_adds_oracle_patch_bit_for_bit(self, ilt1_state, spec):
        # Every ±Δp move of every shot, committed in turn (so later moves
        # hit shots that already moved): a valid move adds exactly the
        # oracle's patch, a refused one (L_min) changes nothing.
        state = ilt1_state
        committed = refused = 0
        for index in range(len(state.shots)):
            for edge in EDGES:
                for delta in (spec.pitch, -spec.pitch):
                    shot = state.shots[index]
                    expect = state.imap.total.copy()
                    valid = make_edge_move_candidate(state, index, edge, delta)
                    if valid is not None:
                        moved = shot.moved_edge(edge, delta)
                        window, patch = edge_move_patch(
                            state.imap, shot, moved, edge
                        )
                        expect[window] += patch
                    assert state.apply_edge_move(index, edge, delta) == (
                        valid is not None
                    )
                    assert np.array_equal(
                        _bits(state.imap.total), _bits(expect)
                    )
                    if valid is None:
                        assert state.shots[index] == shot
                        refused += 1
                    else:
                        assert state.shots[index] == moved
                        committed += 1
        assert committed > 6 * len(state.shots)

    def test_gathered_geometry_equals_oracle(self, ilt1_state, spec):
        # With a cost integral that skips no edge, the gather lists every
        # valid move of every shot; each must carry the window and keys
        # the oracle derives from Rect geometry.
        state = ilt1_state
        ny, nx = state.imap.total.shape
        everywhere = np.ones((ny + 1, nx + 1))
        everywhere[0, :] = everywhere[:, 0] = 0.0
        everywhere = everywhere.cumsum(0).cumsum(1)
        gathered = state.gather_edge_moves(everywhere)
        expect = [
            candidate
            for index in range(len(state.shots))
            for edge in EDGES
            for delta in (spec.pitch, -spec.pitch)
            if (candidate := make_edge_move_candidate(state, index, edge, delta))
        ]
        assert gathered == expect


class TestMutators:
    def test_add_and_remove_roundtrip(self, state):
        baseline = state.imap.total.copy()
        extra = Rect(10, 10, 30, 30)
        state.add_shot(extra)
        assert len(state.shots) == 2
        removed = state.remove_shot(1)
        assert removed == extra
        assert np.max(np.abs(state.imap.total - baseline)) < 1e-9

    def test_replace_shot(self, state):
        new = Rect(5, 5, 55, 35)
        state.replace_shot(0, new)
        assert state.shots[0] == new
        reference = RefinementState(state.shape, state.spec, [new])
        assert np.max(np.abs(state.imap.total - reference.imap.total)) < 1e-7

    def test_snapshot_restore(self, state):
        snapshot = state.snapshot()
        state.apply_edge_move(0, "right", 1.0)
        state.add_shot(Rect(10, 10, 30, 30))
        state.restore(snapshot)
        assert state.shots == snapshot
        reference = RefinementState(state.shape, state.spec, snapshot)
        assert np.max(np.abs(state.imap.total - reference.imap.total)) < 1e-9
