"""The single commit path reproduces the recorded event/subscription golden.

Every committed ΔV event reaches subscriptions and changefeed consumers
through one path: updater → :class:`~repro.service.pipeline.CommitPipeline`
→ subscription registry → changefeed hub.  Before the legacy inline
observer fan-out was deleted, both delivery paths (the inline observers
and the staged pipeline) were run over the two streams below and
produced byte-identical output; that output is frozen in
``tests/data/commit_path_golden.json``.  Replaying the streams through
the remaining path must reproduce it exactly: the wire form of every
published event, plus each subscription's final ``result()``,
``delta()`` and ``stats``.

The streams:

- ``toggle`` — the registrar CS650→CS320 prereq deleted and re-inserted
  four times, under a leading-``//`` and an anchored ``//`` subscription;
- ``pipeline64`` — the ``benchmarks/test_pipeline.py`` stream: 24
  base-update toggles of one enrollment under 64 standing
  subscriptions (one affected, 63 value-anchored skips).

Regenerate with ``PYTHONPATH=src python tests/test_commit_path_golden.py``
only when an intended change alters event or subscription output, and
say why in the change log.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.ops import BaseUpdateOp, DeleteOp, InsertOp
from repro.relview.insert import reset_fresh_counter
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar

GOLDEN = Path(__file__).parent / "data" / "commit_path_golden.json"

TOGGLE_DELETE = DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
TOGGLE_INSERT = InsertOp(
    "course[cno=CS650]/prereq", "course", ("CS320", "Databases")
)
TOGGLE_QUERIES = ("//course", "course[cno=CS650]//course")
TOGGLE_COMMITS = 4

ENROLL_DELETE = BaseUpdateOp(ops=(("delete", "enroll", ("S01", "CS650")),))
ENROLL_INSERT = BaseUpdateOp(ops=(("insert", "enroll", ("S01", "CS650")),))
PIPELINE_MATCHING = "course[cno=CS650]/takenBy/student"
PIPELINE_SKIPS = (
    "course[cno=CS240]/prereq/course",
    "course[cno=CS500]/prereq/course",
    "course[cno=CS240]/takenBy/student",
    "course[cno=CS500]/takenBy/student",
    "course[cno=CS240]/title",
    "course[cno=CS500]/title",
)
PIPELINE_SUBS = 64
PIPELINE_COMMITS = 24


def _service(**config):
    reset_fresh_counter()
    atg, db = build_registrar()
    return open_view(
        atg,
        db,
        config=ViewConfig(side_effects="propagate", strict=False, **config),
    )


def _replay(service, queries, ops) -> dict:
    subs = [service.subscribe(q) for q in queries]
    feed = service.changefeed()
    events = []
    for op in ops:
        service.apply(op)
        events.extend(e.to_dict() for e in feed.events())
    return {
        "events": events,
        "subscriptions": [
            {
                "path": sub.path,
                "result": list(sub.result()),
                "delta": [list(side) for side in sub.delta()],
                "stats": dict(sub.stats),
            }
            for sub in subs
        ],
    }


def toggle_stream(**config) -> dict:
    """The registrar prereq toggle under two ``//`` subscriptions."""
    ops = [
        TOGGLE_DELETE if i % 2 == 0 else TOGGLE_INSERT
        for i in range(TOGGLE_COMMITS)
    ]
    return _replay(_service(**config), TOGGLE_QUERIES, ops)


def pipeline_stream(**config) -> dict:
    """The pipeline benchmark's enrollment toggle at 64 subscriptions."""
    queries = [PIPELINE_MATCHING] + [
        PIPELINE_SKIPS[i % len(PIPELINE_SKIPS)]
        for i in range(PIPELINE_SUBS - 1)
    ]
    ops = [
        ENROLL_DELETE if i % 2 == 0 else ENROLL_INSERT
        for i in range(PIPELINE_COMMITS)
    ]
    return _replay(_service(**config), queries, ops)


STREAMS = {"toggle": toggle_stream, "pipeline64": pipeline_stream}


def _load() -> dict:
    return json.loads(GOLDEN.read_text())


def test_toggle_stream_matches_golden():
    assert toggle_stream() == _load()["toggle"]


def test_pipeline_stream_matches_golden():
    golden = _load()["pipeline64"]
    assert pipeline_stream() == golden
    # The stream exercises both sides of the batched decision pass.
    stats = [sub["stats"] for sub in golden["subscriptions"]]
    assert stats[0]["skips"] == 0
    assert all(s["skips"] == PIPELINE_COMMITS for s in stats[1:])


def test_golden_covers_every_commit():
    # One published event per commit, in strictly increasing generation
    # order (a base-update plan commit advances the version twice).
    golden = _load()
    for name, commits in (
        ("toggle", TOGGLE_COMMITS), ("pipeline64", PIPELINE_COMMITS)
    ):
        generations = [e["generation"] for e in golden[name]["events"]]
        assert len(generations) == commits
        assert generations == sorted(set(generations))


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: run() for name, run in STREAMS.items()},
                   indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {GOLDEN}")
