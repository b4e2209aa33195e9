"""Lock-hold benchmark for the commit pipeline.

A writer holding the service's write lock blocks every reader and every
other writer, so the cost that matters for concurrency is not commit
latency but **lock hold time**.  The commit pipeline keeps only plan →
mutate → maintain under the lock, replaces a per-subscription
dependency scan with one pattern-bucket candidate pass plus the
node-watch intersection, and publishes after release.

The same op stream runs against identically built views at 1 / 64 /
512 standing subscriptions.  Published events and subscription results
must match a fresh evaluation, and at 64 subscriptions the recorded
golden (``tests/data/commit_path_golden.json``, captured when a legacy
inline fan-out still existed and agreed byte for byte).  The gate:
**lock hold at 512 subscriptions is at most 2× the hold at 1** — work
under the lock must not grow with the number of subscriptions that
skip.  Timings land in ``BENCH_index.json`` via
``conftest.record_bench`` under the ``pipeline`` experiment.

Workload shape: one subscription anchored on the toggled enrollment
plus value-anchored standing queries on courses the op stream never
touches — the realistic regime where almost every subscription must
*skip* each commit, which is exactly the work the candidate pass takes
off the write lock.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest
from conftest import record_bench

from repro.ops import BaseUpdateOp
from repro.relview.insert import reset_fresh_counter
from repro.service import ViewConfig, open_view
from repro.workloads.registrar import build_registrar

#: Subscription counts the lock-hold curve is sampled at.
SUB_COUNTS = (1, 64, 512)
LARGEST = max(SUB_COUNTS)

#: Committed toggles per measurement (each op bumps one generation).
COMMITS = 24

#: The one standing query the op stream actually affects.
MATCHING = "course[cno=CS650]/takenBy/student"

#: Standing queries cycled to the requested count, value-anchored at
#: courses the op stream never touches: they must skip every commit.
SKIP_TEMPLATES = (
    "course[cno=CS240]/prereq/course",
    "course[cno=CS500]/prereq/course",
    "course[cno=CS240]/takenBy/student",
    "course[cno=CS500]/takenBy/student",
    "course[cno=CS240]/title",
    "course[cno=CS500]/title",
)

#: Toggle one enrollment tuple in the base database.  A base-relation
#: round trip keeps the mutate phase small, so any per-subscription work
#: under the lock would dominate the hold time.
DELETE = BaseUpdateOp(ops=(("delete", "enroll", ("S01", "CS650")),))
INSERT = BaseUpdateOp(ops=(("insert", "enroll", ("S01", "CS650")),))


#: The recorded single-path output for the 64-subscription stream.
GOLDEN = (
    Path(__file__).resolve().parent.parent
    / "tests" / "data" / "commit_path_golden.json"
)

#: Allowed growth of lock hold from 1 to 512 subscriptions.
MAX_HOLD_GROWTH = 2.0


def _build(n_subs: int):
    reset_fresh_counter()
    atg, db = build_registrar()
    service = open_view(
        atg,
        db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    subs = [service.subscribe(MATCHING)]
    subs += [
        service.subscribe(SKIP_TEMPLATES[i % len(SKIP_TEMPLATES)])
        for i in range(n_subs - 1)
    ]
    return service, subs


@pytest.fixture(scope="module", autouse=True)
def _warm():
    # First-use costs (imports, code caches, registrar build paths)
    # otherwise land entirely on whichever measurement runs first.
    service, _ = _build(8)
    service.changefeed()
    for i in range(10):
        service.apply(DELETE if i % 2 == 0 else INSERT)


def _run(n_subs: int) -> dict:
    """One full measurement: timings + observable outputs."""
    service, subs = _build(n_subs)
    feed = service.changefeed()
    hold_base = service.pipeline.stats()["lock_hold_seconds"]
    latency = 0.0
    published = []
    for i in range(COMMITS):
        op = DELETE if i % 2 == 0 else INSERT
        start = time.perf_counter()
        service.apply(op)
        latency += time.perf_counter() - start
        # Drain outside the timed region so queue depth never feeds
        # back into the measurement.
        published.extend(e.to_dict() for e in feed.events())
    lock_hold = service.pipeline.stats()["lock_hold_seconds"] - hold_base
    for sub in subs:
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        ), sub.path
    return {
        "lock_hold": lock_hold,
        "latency": latency,
        "published": published,
        "subscriptions": [
            {
                "path": sub.path,
                "result": list(sub.result()),
                "delta": [list(side) for side in sub.delta()],
                "stats": dict(sub.stats),
            }
            for sub in subs
        ],
        "skips": service.subscriptions.stats()["skips"],
    }


def _best_hold(n_subs: int) -> float:
    # Best-of-3 (the repo's standard noise estimator, see
    # test_coarse_fallback): scheduler hiccups only ever inflate a
    # timing, so the minimum is the least-noisy estimate.
    return min(_run(n_subs)["lock_hold"] for _ in range(3))


@pytest.mark.parametrize("n_subs", SUB_COUNTS)
def test_pipeline_modes_agree_and_record(n_subs):
    staged = _run(n_subs)
    experiment = f"pipeline:subs{n_subs}"
    extra = {"subscriptions": n_subs, "commits": COMMITS}
    record_bench(
        experiment, "auto", "staged_lock_hold", staged["lock_hold"], **extra
    )
    record_bench(
        experiment, "auto", "staged_commit_latency",
        staged["latency"], **extra,
    )
    if n_subs == 64:
        golden = json.loads(GOLDEN.read_text())["pipeline64"]
        assert staged["published"] == golden["events"]
        assert staged["subscriptions"] == golden["subscriptions"]
    # The stream must exercise the skip fast path, or the candidate
    # pass is not what is being measured.
    if n_subs > 1:
        assert staged["skips"] > 0


@pytest.mark.perf
def test_staged_lock_hold_flat_from_1_to_512_subs():
    """Gate: lock hold at 512 skip-only subscriptions ≤ 2× the hold at 1.

    A per-subscription scan under the lock (what the removed inline
    fan-out did) held the lock 36.2 ms at 512 subscriptions vs 9.6 ms
    at 1 over 24 commits (best-of-3, 2-vCPU Linux VM), so any return of
    one fails this gate; the pipeline measured 8.2 vs 7.1 ms there.
    """
    one = _best_hold(min(SUB_COUNTS))
    many = _best_hold(LARGEST)
    growth = many / max(one, 1e-9)
    record_bench(
        f"pipeline:subs{LARGEST}", "auto", "lock_hold_growth_vs_1",
        0.0, ratio=round(growth, 2),
    )
    assert growth <= MAX_HOLD_GROWTH, (
        f"lock hold grows {growth:.2f}x from 1 to {LARGEST} "
        f"subscriptions (best-of-3: {one:.4f}s vs {many:.4f}s over "
        f"{COMMITS} commits)"
    )
