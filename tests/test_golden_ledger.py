"""Golden per-clip ledger: OURS shot lists on the Table 2 / Table 3 clips.

For every Table 2 clip (ILT-1..10) and Table 3 clip (AGB-1..5,
RGB-1..5), fractured with the default method at the default
:class:`FractureSpec`, ``tests/golden/ours_tables.json`` records the
shot count, the failing pixel count and the sha256 of the shot tuples.
The test checks all three exactly, so any change to the refinement
that moves a single shot edge shows up here.

Regenerate the file (and say why in CHANGES.md) with::

    PYTHONPATH=src python -m tests.test_golden_ledger --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.bench.shapes import agb_suite, ilt_suite, rgb_suite
from repro.mask.constraints import FractureSpec
from repro.methods import make_fracturer

GOLDEN = Path(__file__).with_name("golden") / "ours_tables.json"


def table_clips() -> dict:
    """The 20 Table 2 / Table 3 clips by name."""
    spec = FractureSpec()
    clips = {shape.name: shape for shape in ilt_suite()}
    for known in agb_suite(spec) + rgb_suite(spec):
        clips[known.shape.name] = known.shape
    return clips


def shots_digest(shots) -> str:
    """sha256 of the shot tuples ``(xbl, ybl, xtr, ytr)`` in list order."""
    tuples = [[s.xbl, s.ybl, s.xtr, s.ytr] for s in shots]
    return hashlib.sha256(json.dumps(tuples).encode()).hexdigest()


def ledger_entry(shape) -> dict:
    result = make_fracturer("ours").fracture(shape, FractureSpec())
    return {
        "shots": result.shot_count,
        "failing_px": result.report.total_failing,
        "sha256": shots_digest(result.shots),
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())["clips"]


@pytest.fixture(scope="module")
def clips() -> dict:
    return table_clips()


@pytest.mark.parametrize("name", list(_golden()))
def test_ours_matches_golden_ledger(name, clips):
    assert ledger_entry(clips[name]) == _golden()[name]


def test_ledger_covers_every_table_clip(clips):
    assert sorted(_golden()) == sorted(clips)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.test_golden_ledger --write")
    payload = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    payload["clips"] = {
        name: ledger_entry(shape) for name, shape in table_clips().items()
    }
    GOLDEN.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {GOLDEN}")
