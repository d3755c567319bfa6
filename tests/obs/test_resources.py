"""Tests for resource sampling and the worker heartbeat channel."""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.obs import (
    HeartbeatMonitor,
    HeartbeatWriter,
    TelemetryRecorder,
    read_heartbeats,
    rss_bytes,
    sample_resources,
)


class TestSampling:
    def test_rss_bytes_is_plausible(self):
        rss = rss_bytes()
        # A Python interpreter needs at least a few MB; None only on
        # platforms with neither /proc nor getrusage.
        assert rss is None or rss > 1_000_000

    def test_sample_has_the_contracted_fields(self):
        sample = sample_resources()
        assert set(sample) == {"t", "rss_bytes", "cpu_s"}
        assert sample["cpu_s"] >= 0.0


class TestAtomicWrite:
    def test_replaces_whole_file_without_leftovers(self, tmp_path):
        from repro.obs import atomic_write_text

        path = tmp_path / "out.json"
        path.write_text("old contents that are longer")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert not list(tmp_path.glob("*.tmp"))


class TestHeartbeatWriter:
    def test_beat_publishes_atomic_json(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, interval_s=60.0)
        writer.directory.mkdir(exist_ok=True)
        writer.beat()
        record = json.loads(writer.path.read_text())
        assert record["pid"] == os.getpid()
        assert record["beats"] == 1
        assert "rss_bytes" in record and "cpu_s" in record
        assert not list(tmp_path.glob("*.tmp"))  # rename completed

    def test_set_and_clear_task_bracket_the_tile(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, interval_s=60.0)
        writer.directory.mkdir(exist_ok=True)
        writer.set_task("t3,1", attempt=2)
        record = json.loads(writer.path.read_text())
        assert record["tile"] == "t3,1"
        assert record["attempt"] == 2
        assert record["task_started_t"] <= time.time()
        writer.clear_task()
        assert "tile" not in json.loads(writer.path.read_text())

    def test_thread_republishes(self, tmp_path):
        writer = HeartbeatWriter(tmp_path, interval_s=0.02).start()
        try:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if json.loads(writer.path.read_text())["beats"] >= 3:
                    break
                time.sleep(0.01)
            assert json.loads(writer.path.read_text())["beats"] >= 3
        finally:
            writer.stop()

    def test_torn_down_directory_is_tolerated(self, tmp_path):
        directory = tmp_path / "gone"
        writer = HeartbeatWriter(directory, interval_s=60.0)
        writer.beat()  # directory never created: swallowed, no raise


class TestReadHeartbeats:
    def test_reads_all_and_skips_corrupt(self, tmp_path):
        (tmp_path / "hb-100.json").write_text(json.dumps({"pid": 100, "t": 1.0}))
        (tmp_path / "hb-200.json").write_text("{torn")
        (tmp_path / "hb-300.json").write_text(json.dumps({"pid": 300, "t": 2.0}))
        beats = read_heartbeats(tmp_path)
        assert [b["pid"] for b in beats] == [100, 300]

    def test_missing_directory_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "absent") == []


def _beat_file(directory, pid, t, tile=None, started=None, cpu=1.0):
    record = {"pid": pid, "beats": 1, "t": t, "rss_bytes": 10_000_000,
              "cpu_s": cpu}
    if tile is not None:
        record.update(tile=tile, attempt=1, task_started_t=started or t)
    (directory / f"hb-{pid}.json").write_text(json.dumps(record))


class TestHeartbeatMonitor:
    def test_fresh_workers_fold_into_gauges_and_events(self, tmp_path):
        now = 1000.0
        _beat_file(tmp_path, 11, now - 0.1, tile="t0,0", cpu=1.5)
        _beat_file(tmp_path, 12, now - 0.2, cpu=2.5)
        rec = TelemetryRecorder()
        monitor = HeartbeatMonitor(tmp_path, rec, interval_s=1.0)
        stalls = monitor.tick(now=now)
        assert stalls == []
        assert rec.gauges["windowed.workers_alive"] == 2
        assert rec.gauges["windowed.workers_stalled"] == 0
        assert rec.gauges["windowed.worker_cpu_s_total"] == 4.0
        assert rec.gauges["windowed.worker_rss_peak_bytes"] == 10_000_000
        beats = [e for e in rec.events if e["name"] == "worker_heartbeat"]
        assert {e["pid"] for e in beats} == {11, 12}

    def test_stale_file_flags_no_heartbeat_once_per_episode(self, tmp_path):
        now = 1000.0
        _beat_file(tmp_path, 11, now - 10.0, tile="t0,0")
        rec = TelemetryRecorder()
        monitor = HeartbeatMonitor(
            tmp_path, rec, interval_s=1.0, stall_after_s=3.0
        )
        first = monitor.tick(now=now)
        second = monitor.tick(now=now + 1.0)
        assert len(first) == 1
        assert first[0]["kind"] == "no_heartbeat"
        assert first[0]["tile"] == "t0,0"
        assert second == []  # deduped: same episode
        assert rec.counters["windowed.worker_stalls"] == 1
        assert rec.gauges["windowed.workers_stalled"] == 1

    def test_recovered_worker_can_stall_again(self, tmp_path):
        rec = TelemetryRecorder()
        monitor = HeartbeatMonitor(
            tmp_path, rec, interval_s=1.0, stall_after_s=3.0
        )
        _beat_file(tmp_path, 11, 990.0)
        assert len(monitor.tick(now=1000.0)) == 1  # stalled
        _beat_file(tmp_path, 11, 1001.0)
        assert monitor.tick(now=1001.5) == []  # recovered
        _beat_file(tmp_path, 11, 1001.0)
        assert len(monitor.tick(now=1010.0)) == 1  # new episode

    def test_slow_task_catches_hung_worker_with_live_heartbeat(self, tmp_path):
        # The heartbeat file is fresh (the daemon thread still beats) but
        # the task started long ago: precisely the hang signature.
        now = 1000.0
        _beat_file(tmp_path, 11, now - 0.1, tile="t2,0", started=now - 50.0)
        rec = TelemetryRecorder()
        monitor = HeartbeatMonitor(
            tmp_path, rec, interval_s=1.0,
            stall_after_s=3.0, slow_task_after_s=10.0,
        )
        stalls = monitor.tick(now=now)
        assert len(stalls) == 1
        assert stalls[0]["kind"] == "slow_task"
        assert stalls[0]["tile"] == "t2,0"
        assert stalls[0]["age_s"] >= 49.0
        # Still counted alive — the process responds, it is just slow.
        assert rec.gauges["windowed.workers_alive"] == 1

    def test_idle_fresh_worker_is_never_slow(self, tmp_path):
        now = 1000.0
        _beat_file(tmp_path, 11, now - 0.1)  # no task
        monitor = HeartbeatMonitor(
            tmp_path, TelemetryRecorder(), interval_s=1.0,
            slow_task_after_s=0.001,
        )
        assert monitor.tick(now=now) == []

    def test_tick_emits_metrics_snapshot_into_stream(self, tmp_path):
        from repro.obs import TelemetryStream, read_stream

        now = 1000.0
        _beat_file(tmp_path, 11, now - 0.1)
        stream_path = tmp_path / "s.jsonl"
        stream = TelemetryStream(stream_path)
        rec = TelemetryRecorder(stream=stream)
        HeartbeatMonitor(tmp_path, rec, interval_s=1.0).tick(now=now)
        stream.close()
        types = [r["type"] for r in read_stream(stream_path)]
        assert "metrics" in types
        assert "event" in types  # the worker_heartbeat event


class TestNamedWriterAndSummary:
    def test_named_writer_with_meta_and_unlink(self, tmp_path):
        writer = HeartbeatWriter(
            tmp_path, interval_s=60.0, name="job-ab12cd34",
            meta={"job_id": "job-ab12cd34"},
        )
        writer.directory.mkdir(exist_ok=True)
        writer.beat()
        assert writer.path.name == "hb-job-ab12cd34.json"
        record = json.loads(writer.path.read_text())
        assert record["job_id"] == "job-ab12cd34"
        writer.stop(unlink=True)
        assert not writer.path.exists()

    def test_summarize_classifies_alive_slow_and_dead(self, tmp_path):
        from repro.obs import summarize_heartbeats

        now = 1000.0
        (tmp_path / "hb-a.json").write_text(
            json.dumps({"pid": 1, "t": now - 1.0, "job_id": "job-a"})
        )
        (tmp_path / "hb-b.json").write_text(json.dumps({
            "pid": 2, "t": now - 1.0, "tile": "CLIP-9",
            "task_started_t": now - 500.0, "job_id": "job-b",
        }))
        (tmp_path / "hb-c.json").write_text(
            json.dumps({"pid": 3, "t": now - 60.0})
        )
        summary = summarize_heartbeats(
            tmp_path, stall_after_s=10.0, slow_task_after_s=120.0, now=now,
        )
        assert summary["alive"] == 1 and summary["stalled"] == 2
        by_pid = {w["pid"]: w for w in summary["workers"]}
        assert by_pid[1]["status"] == "alive"
        assert by_pid[2]["status"] == "slow_task"
        assert by_pid[2]["task"] == "CLIP-9"
        assert by_pid[2]["task_age_s"] == pytest.approx(500.0)
        assert by_pid[2]["job_id"] == "job-b"
        assert by_pid[3]["status"] == "no_heartbeat"

    def test_summarize_without_slow_threshold(self, tmp_path):
        from repro.obs import summarize_heartbeats

        now = 1000.0
        (tmp_path / "hb-b.json").write_text(json.dumps({
            "pid": 2, "t": now - 1.0, "tile": "CLIP-9",
            "task_started_t": now - 500.0,
        }))
        summary = summarize_heartbeats(tmp_path, stall_after_s=10.0, now=now)
        assert summary["alive"] == 1 and summary["stalled"] == 0

    def test_monitor_and_summary_classify_alike(self, tmp_path):
        from repro.obs import summarize_heartbeats

        now = 1000.0
        beats = {
            "hb-a.json": {"pid": 1, "t": now - 1.0},
            "hb-b.json": {
                "pid": 2, "t": now - 1.0, "tile": "t0,0",
                "task_started_t": now - 50.0,
            },
            "hb-c.json": {"pid": 3, "t": now - 60.0},
        }
        for name, beat in beats.items():
            (tmp_path / name).write_text(json.dumps(beat))
        summary = summarize_heartbeats(
            tmp_path, stall_after_s=10.0, slow_task_after_s=20.0, now=now,
        )
        stalls = HeartbeatMonitor(
            tmp_path, TelemetryRecorder(), interval_s=1.0,
            stall_after_s=10.0, slow_task_after_s=20.0,
        ).tick(now=now)
        flagged = {w["pid"]: w["status"] for w in summary["workers"]
                   if w["status"] != "alive"}
        assert flagged == {s["pid"]: s["kind"] for s in stalls}
        assert flagged == {2: "slow_task", 3: "no_heartbeat"}

    def test_summarize_empty_or_missing_directory(self, tmp_path):
        from repro.obs import summarize_heartbeats

        summary = summarize_heartbeats(tmp_path / "missing")
        assert summary == {"workers": [], "alive": 0, "stalled": 0}
