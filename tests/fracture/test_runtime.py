"""Unit tests for the fault-tolerant tile execution layer.

Fast by construction: stub tiles and a stub inner fracturer make every
``run_tiles`` call a few milliseconds, so retry/backoff/fallback/journal
logic is exercised without real fracturing.
"""

import json
from dataclasses import asdict

import pytest

from repro.fracture.runtime import (
    CheckpointJournal,
    CheckpointMismatch,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
    RetryPolicy,
    RuntimePolicy,
    TileOutcome,
    run_tiles,
)
from repro.geometry.rect import Rect
from repro.mask.constraints import FractureSpec


class StubTile:
    """Minimal tile: a name and an accept-everything ownership rule."""

    def __init__(self, name: str):
        self.name = name

    def owns(self, x: float, y: float) -> bool:
        return True


class StubInner:
    """Inner fracturer stub: one fixed shot per sub-shape."""

    name = "STUB"

    def fracture_shots(self, sub, spec):
        return [Rect(0.0, 0.0, 10.0, 10.0)]


def _jobs(n: int = 3, subs_per_tile: int = 1):
    return [
        (StubTile(f"t{i},0"), [object()] * subs_per_tile) for i in range(n)
    ]


def _fast_retry(**overrides) -> RetryPolicy:
    defaults = dict(max_attempts=3, backoff_s=0.0, backoff_cap_s=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _policy(retry: RetryPolicy | None = None, **fields) -> RuntimePolicy:
    return RuntimePolicy(retry=retry or _fast_retry(), **fields)


def _stub_fallback(tile, subs, spec):
    return [Rect(1.0, 1.0, 2.0, 2.0)]


SPEC = FractureSpec()


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, backoff_cap_s=0.3)
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)  # capped
        assert policy.backoff(10) == pytest.approx(0.3)


class TestFaultPlan:
    def test_parse_variants(self):
        plan = FaultPlan.parse(["t0,0:crash", "t1,2:raise:2", "t2,0:hang"])
        assert plan.faults["t0,0"] == FaultSpec("crash", 1)
        assert plan.faults["t1,2"] == FaultSpec("raise", 2)
        assert plan.faults["t2,0"] == FaultSpec("hang", 1)

    @pytest.mark.parametrize("bad", ["", "t0,0", "t0,0:explode", ":crash"])
    def test_parse_rejects_bad_specs(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])

    def test_seeded_is_deterministic(self):
        names = [f"t{i},0" for i in range(20)]
        a = FaultPlan.seeded(names, seed=7, fraction=0.4)
        b = FaultPlan.seeded(names, seed=7, fraction=0.4)
        assert a.faults == b.faults
        assert set(a.faults) <= set(names)

    def test_fire_arms_per_attempt(self):
        plan = FaultPlan(faults={"t0,0": FaultSpec("raise", 2)})
        with pytest.raises(InjectedFault):
            plan.fire("t0,0", attempt=1, inline=True)
        with pytest.raises(InjectedFault):
            plan.fire("t0,0", attempt=2, inline=True)
        plan.fire("t0,0", attempt=3, inline=True)  # disarmed
        plan.fire("t9,9", attempt=1, inline=True)  # unnamed tile: no-op

    def test_inline_crash_and_hang_are_simulated(self):
        plan = FaultPlan(faults={"a": FaultSpec("crash"), "b": FaultSpec("hang")})
        with pytest.raises(InjectedCrash):
            plan.fire("a", attempt=1, inline=True)
        with pytest.raises(InjectedHang):
            plan.fire("b", attempt=1, inline=True)


class TestCheckpointJournal:
    RUN_KEY = {"shape": "s", "window_nm": 100.0}

    def _outcome(self, idx=0, name="t0,0", fallback=False):
        return TileOutcome(
            index=idx, tile_name=name, ok=True,
            shots=[Rect(0.25, 0.5, 10.125, 20.0625)],
            attempts=2, fallback=fallback,
        )

    def test_roundtrip_replays_exact_shots(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY)
        journal.record(self._outcome())
        resumed = CheckpointJournal.open(path, self.RUN_KEY, resume=True)
        replayed = resumed.replay(0, "t0,0")
        assert replayed is not None
        assert replayed.replayed
        assert replayed.shots == [Rect(0.25, 0.5, 10.125, 20.0625)]
        assert replayed.attempts == 2
        assert resumed.replay(1, "t1,0") is None

    def test_append_round_trips_fields(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY)
        journal.append("fp-1", {"payload": {"shots": [], "shot_count": 0}})
        journal.append("fp-2", {"payload": {"shots": [], "shot_count": 2}})
        assert set(journal.completed) == {"fp-1", "fp-2"}
        resumed = CheckpointJournal.open(path, self.RUN_KEY, resume=True)
        assert resumed.completed["fp-2"]["payload"] == {
            "shots": [], "shot_count": 2,
        }
        assert "fp-3" not in resumed.completed

    def test_fallback_flag_survives_resume(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY)
        journal.record(self._outcome(fallback=True))
        resumed = CheckpointJournal.open(path, self.RUN_KEY, resume=True)
        assert resumed.replay(0, "t0,0").fallback

    def test_partial_trailing_line_ignored(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY)
        journal.record(self._outcome())
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "tile", "tile": "t1,0", "sho')  # torn write
        resumed = CheckpointJournal.open(path, self.RUN_KEY, resume=True)
        assert set(resumed.completed) == {"t0,0"}

    def test_run_key_mismatch_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        CheckpointJournal.open(path, self.RUN_KEY)
        with pytest.raises(CheckpointMismatch):
            CheckpointJournal.open(
                path, {"shape": "s", "window_nm": 200.0}, resume=True
            )

    def test_open_without_resume_truncates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY)
        journal.record(self._outcome())
        fresh = CheckpointJournal.open(path, self.RUN_KEY, resume=False)
        assert not fresh.completed
        assert len(path.read_text().splitlines()) == 1  # header only

    def test_resume_with_missing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "new.jsonl"
        journal = CheckpointJournal.open(path, self.RUN_KEY, resume=True)
        assert not journal.completed
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "header"


class TestRunTilesSerial:
    def test_clean_run_in_job_order(self):
        outcomes, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC, policy=_policy()
        )
        assert [o.tile_name for o in outcomes] == ["t0,0", "t1,0", "t2,0"]
        assert all(o.ok and not o.fallback for o in outcomes)
        assert asdict(stats) == {
            "tile_retries": 0, "tile_timeouts": 0, "pool_respawns": 0,
            "tile_fallbacks": 0, "tiles_replayed": 0,
        }

    def test_injected_raise_is_retried_then_succeeds(self):
        outcomes, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC,
            policy=_policy(
                fault_plan=FaultPlan(faults={"t1,0": FaultSpec("raise", 1)})
            ),
        )
        assert all(o.ok and not o.fallback for o in outcomes)
        assert outcomes[1].attempts == 2
        assert stats.tile_retries == 1

    def test_inline_hang_counts_as_timeout(self):
        outcomes, stats = run_tiles(
            _jobs(2), inner=StubInner(), spec=SPEC,
            policy=_policy(
                fault_plan=FaultPlan(faults={"t0,0": FaultSpec("hang", 1)})
            ),
        )
        assert all(o.ok for o in outcomes)
        assert stats.tile_timeouts == 1
        assert stats.tile_retries == 1

    def test_exhausted_retries_degrade_to_fallback(self):
        outcomes, stats = run_tiles(
            _jobs(3, subs_per_tile=2), inner=StubInner(), spec=SPEC,
            policy=_policy(
                _fast_retry(max_attempts=2),
                fault_plan=FaultPlan(faults={"t2,0": FaultSpec("raise", 99)}),
            ),
            fallback=_stub_fallback,
        )
        assert outcomes[2].fallback
        assert outcomes[2].shots == [Rect(1.0, 1.0, 2.0, 2.0)]
        # The enriched error keeps tile identity and sub-shape count.
        assert "t2,0" in outcomes[2].error
        assert "2 sub-shapes" in outcomes[2].error
        assert stats.tile_fallbacks == 1
        assert stats.tile_retries == 1
        # The healthy tiles are untouched.
        assert not outcomes[0].fallback and not outcomes[1].fallback

    def test_zero_retries_goes_straight_to_fallback(self):
        outcomes, stats = run_tiles(
            _jobs(1), inner=StubInner(), spec=SPEC,
            policy=_policy(
                _fast_retry(max_attempts=1),
                fault_plan=FaultPlan(faults={"t0,0": FaultSpec("raise", 1)}),
            ),
            fallback=_stub_fallback,
        )
        assert outcomes[0].fallback
        assert stats.tile_retries == 0

    def test_journal_resume_skips_completed_tiles(self, tmp_path):
        run_key = {"k": 1}
        journal = CheckpointJournal.open(tmp_path / "j.jsonl", run_key)
        first, _ = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC, policy=_policy(),
            journal=journal,
        )
        resumed_journal = CheckpointJournal.open(
            tmp_path / "j.jsonl", run_key, resume=True
        )
        second, stats = run_tiles(
            _jobs(3), inner=StubInner(), spec=SPEC, policy=_policy(),
            journal=resumed_journal,
        )
        assert stats.tiles_replayed == 3
        assert [o.shots for o in second] == [o.shots for o in first]
        assert all(o.replayed for o in second)

    def test_outcome_record_shape(self):
        outcomes, _stats = run_tiles(
            _jobs(1), inner=StubInner(), spec=SPEC, policy=_policy()
        )
        record = outcomes[0].to_record()
        assert record == {
            "tile": "t0,0", "ok": True, "attempts": 1, "shots": 1,
            "fallback": False, "replayed": False,
        }


class TestProgressTelemetry:
    def test_progress_events_count_up_with_eta(self):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(_jobs(4), inner=StubInner(), spec=SPEC,
                      policy=_policy())
        progress = [e for e in rec.events if e["name"] == "progress"]
        assert [e["tiles_done"] for e in progress] == [1, 2, 3, 4]
        assert all(e["tiles_total"] == 4 for e in progress)
        assert progress[-1]["shots"] == 4
        assert progress[-1]["tile_wall_ewma_s"] >= 0.0
        # The last tile has nothing remaining, so no ETA; earlier ones
        # carry a non-negative estimate.
        assert "eta_s" not in progress[-1]
        assert all(e["eta_s"] >= 0.0 for e in progress[:-1])
        assert rec.gauges["windowed.tiles_done"] == 4
        assert rec.gauges["windowed.shots_done"] == 4

    def test_replayed_tiles_count_as_done_up_front(self, tmp_path):
        import repro.obs as obs

        run_key = {"k": 1}
        journal = CheckpointJournal.open(tmp_path / "j.jsonl", run_key)
        run_tiles(_jobs(3), inner=StubInner(), spec=SPEC,
                  policy=_policy(), journal=journal)
        resumed = CheckpointJournal.open(
            tmp_path / "j.jsonl", run_key, resume=True
        )
        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(_jobs(4), inner=StubInner(), spec=SPEC,
                      policy=_policy(), journal=resumed)
        progress = [e for e in rec.events if e["name"] == "progress"]
        # Only the one fresh tile produces a progress event, starting
        # from the replayed baseline of 3.
        assert [e["tiles_done"] for e in progress] == [4]

    def test_fallback_tiles_still_advance_progress(self):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            run_tiles(
                _jobs(2), inner=StubInner(), spec=SPEC,
                policy=_policy(
                    _fast_retry(max_attempts=1),
                    fault_plan=FaultPlan(faults={"t0,0": FaultSpec("raise", 1)}),
                ),
                fallback=_stub_fallback,
            )
        progress = [e for e in rec.events if e["name"] == "progress"]
        assert [e["tiles_done"] for e in progress] == [1, 2]


class TestHeartbeatIntegration:
    def test_pooled_outcomes_carry_worker_pid(self):
        import os

        outcomes, _stats = run_tiles(
            _jobs(4), inner=StubInner(), spec=SPEC, workers=2,
            policy=_policy(),
        )
        pids = {o.worker_pid for o in outcomes}
        assert None not in pids
        assert os.getpid() not in pids  # pool workers, not the parent
        assert all("worker_pid" in o.to_record() for o in outcomes)

    def test_heartbeats_fold_into_events_and_gauges(self):
        import time

        import repro.obs as obs

        class SlowInner(StubInner):
            def fracture_shots(self, sub, spec):
                time.sleep(0.05)
                return super().fracture_shots(sub, spec)

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            outcomes, _stats = run_tiles(
                _jobs(8), inner=SlowInner(), spec=SPEC, workers=2,
                policy=_policy(heartbeat_s=0.05),
            )
        assert all(o.ok for o in outcomes)
        beats = [e for e in rec.events if e["name"] == "worker_heartbeat"]
        assert beats, "heartbeat events must reach the parent recorder"
        assert all("rss_bytes" in b and "cpu_s" in b for b in beats)
        assert rec.gauges.get("windowed.workers_alive", 0) >= 1

    def test_hang_is_flagged_as_slow_task_before_deadline(self):
        import repro.obs as obs

        rec = obs.TelemetryRecorder()
        with obs.recording(rec):
            outcomes, stats = run_tiles(
                _jobs(3), inner=StubInner(), spec=SPEC, workers=2,
                policy=_policy(
                    _fast_retry(tile_deadline_s=2.0),
                    fault_plan=FaultPlan(
                        faults={"t1,0": FaultSpec("hang", 1)}, hang_s=60.0
                    ),
                    heartbeat_s=0.1,
                ),
            )
        assert all(o.ok for o in outcomes)
        assert stats.tile_timeouts == 1
        stalls = [e for e in rec.events if e["name"] == "worker_stalled"]
        # The stall alarm fires at half the deadline — before the
        # deadline kill rescues the tile.
        assert stalls and stalls[0]["kind"] == "slow_task"
        assert stalls[0]["tile"] == "t1,0"
        assert stalls[0]["age_s"] < 2.0
        assert rec.counters["windowed.worker_stalls"] >= 1

    def test_merged_shots_identical_with_and_without_observability(
        self, tmp_path
    ):
        import repro.obs as obs

        baseline, _ = run_tiles(
            _jobs(6), inner=StubInner(), spec=SPEC, policy=_policy()
        )
        stream = obs.TelemetryStream(tmp_path / "s.jsonl")
        rec = obs.TelemetryRecorder(stream=stream)
        with obs.recording(rec):
            observed, _ = run_tiles(
                _jobs(6), inner=StubInner(), spec=SPEC, workers=2,
                policy=_policy(heartbeat_s=0.05),
            )
        stream.close()
        assert [o.shots for o in observed] == [o.shots for o in baseline]
