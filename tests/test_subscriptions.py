"""Tests for the ΔV-driven subscription engine (``service.subscribe``).

The acceptance contract: after *every* committed operation — single
ops of every kind, batched lists, batch context managers, aborted
plans, rejected ops, undo — every active subscription's ``result()``
equals a fresh ``service.xpath()`` evaluation of the same path, while
the per-step dependency analysis provably skips (or suffix-restarts)
maintenance for unaffected queries.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.service import ViewConfig, open_view
from repro.subscribe import (
    EdgeRecord,
    ViewEvent,
    first_affected_step,
    profile_query,
)
from repro.subscribe.deps import ANY_EDGE
from repro.workloads import REGISTRAR_QUERIES, make_query_set, make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from repro.xpath.parser import parse_xpath


def registrar_service(**config):
    atg, db = build_registrar()
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    return open_view(atg, db, config=ViewConfig(**config))


def synthetic_service(n_c=90, seed=5, **config):
    dataset = build_synthetic(SyntheticConfig(n_c=n_c, seed=seed))
    config.setdefault("side_effects", "propagate")
    config.setdefault("strict", False)
    service = open_view(dataset.atg, dataset.db, config=ViewConfig(**config))
    return service, dataset


def assert_current(service, subs, tag=""):
    """Every subscription equals a fresh evaluation, right now."""
    for sub in subs:
        fresh = tuple(sorted(service.xpath(sub.path).targets))
        assert sub.result() == fresh, (
            f"{tag}: subscription {sub.path!r} drifted: "
            f"{sub.result()} != fresh {fresh}"
        )


# ---------------------------------------------------------------------------
# Dependency extraction and event pruning (unit level)
# ---------------------------------------------------------------------------


class TestDependencyAnalysis:
    def test_anchored_child_path_is_prunable(self):
        profile = profile_query(
            parse_xpath("course[cno=CS650]/prereq/course"), "db"
        )
        assert profile.prunable
        # Step 0 only feels (db -> course) edges.
        assert {(p.parent, p.child) for p in profile.per_step[0]} == {
            ("db", "course")
        }
        # The value filter feels (course -> cno) edges with value CS650.
        [pattern] = profile.per_step[1]
        assert pattern.child == "cno"
        assert pattern.values == frozenset({"CS650"})

    def test_descendant_steps_depend_on_their_region(self):
        # ``//`` steps match any edge type, but only through a parent
        # the cached region already contains.
        profile = profile_query(parse_xpath("course//student"), "db")
        [pattern] = profile.per_step[1]
        assert pattern.parent is None and pattern.child is None
        assert pattern.in_region

    def test_wildcard_steps_depend_on_their_context(self):
        profile = profile_query(parse_xpath("*/prereq"), "db")
        [pattern] = profile.per_step[0]
        assert pattern.child is None and pattern.in_context

    def test_filter_path_wildcards_are_never_prunable(self):
        profile = profile_query(parse_xpath("course[.//project]"), "db")
        assert not profile.prunable
        assert any(ANY_EDGE in deps for deps in profile.per_step)

    def test_label_test_and_own_value_never_invalidate(self):
        # label() and the context node's own value are immutable.
        profile = profile_query(
            parse_xpath("course[label()=course]"), "db"
        )
        assert profile.per_step[1] == ()

    def _event(self, *edges):
        return ViewEvent(generation=1, edges=[
            EdgeRecord("delete", p, c, 0, 1, child_value=v)
            for p, c, v in edges
        ])

    def test_unrelated_edge_is_skipped(self):
        profile = profile_query(
            parse_xpath("course[cno=CS650]/prereq/course"), "db"
        )
        event = self._event(("takenBy", "student", None))
        assert first_affected_step(profile, event) is None

    def test_value_anchor_prunes_other_values(self):
        profile = profile_query(
            parse_xpath("course[cno=CS650]/prereq/course"), "db"
        )
        other = self._event(("course", "cno", "CS240"))
        assert first_affected_step(profile, other) is None
        hit = self._event(("course", "cno", "CS650"))
        assert first_affected_step(profile, hit) == 1
        unknown = self._event(("course", "cno", None))
        assert first_affected_step(profile, unknown) == 1  # conservative

    def test_suffix_restart_index(self):
        profile = profile_query(
            parse_xpath("course[cno=CS650]/prereq/course"), "db"
        )
        # A (prereq -> course) change only affects the last step: the
        # cached contexts up to the prereq level stay valid.
        event = self._event(("prereq", "course", None))
        assert first_affected_step(profile, event) == 3

    def test_coarse_event_invalidates_everything(self):
        profile = profile_query(parse_xpath("course"), "db")
        event = ViewEvent(generation=1, coarse=True)
        assert first_affected_step(profile, event) == 0

    def test_empty_event_touches_nothing(self):
        profile = profile_query(parse_xpath("//course"), "db")
        assert first_affected_step(profile, ViewEvent(generation=1)) is None


# ---------------------------------------------------------------------------
# Registrar: every op kind, plans, batches, undo
# ---------------------------------------------------------------------------


class TestRegistrarEquivalence:
    def test_mixed_stream_keeps_every_subscription_current(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        assert_current(service, subs, "eager initial evaluation")
        stream = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                      "course", ("CS320", "Databases")),
            DeleteOp("course[cno=NOPE]"),  # rejected: no event
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
            InsertOp(".", "course", ("CS700", "Theory")),
            DeleteOp("//course[cno=CS240]/project"),  # rejected by DTD? no: selects none
        ]
        undoable = []
        for op in stream:
            outcome = service.apply(op)
            if outcome.accepted:
                undoable.append(outcome)
            assert_current(service, subs, f"after {op.kind}")
        for outcome in reversed(undoable):
            if outcome.delta_r is None or not len(outcome.delta_r.ops):
                continue
            service.undo(outcome)
            assert_current(service, subs, "after undo")
        assert service.check_consistency() == []

    def test_batched_list_and_context_manager(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        service.apply([
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp(".", "course", ("CS700", "Theory")),
        ])
        assert_current(service, subs, "after batched list")
        with service.batch() as batch:
            batch.apply(InsertOp(".", "course", ("CS800", "Quantum")))
            # Mid-batch reads fall back to a full re-evaluation (the
            # generation tag mismatches while maintenance is pending).
            assert_current(service, subs, "mid-batch")
            batch.apply(DeleteOp("course[cno=CS800]"))
        assert_current(service, subs, "after batch flush")
        assert service.check_consistency() == []

    def test_aborted_and_rejected_plans_change_nothing(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        before = [sub.result() for sub in subs]
        generations = [sub.generation for sub in subs]
        service.plan(InsertOp(".", "course", ("CS900", "X"))).abort()
        plan = service.plan(DeleteOp("course[cno=NOPE]"))
        assert not plan.accepted
        assert [sub.result() for sub in subs] == before
        assert [sub.generation for sub in subs] == generations
        assert_current(service, subs, "after abort")

    def test_plan_commit_notifies(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        plan = service.plan(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        plan.commit()
        assert_current(service, subs, "after plan commit")

    def test_unrelated_ops_are_skipped_not_reevaluated(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS240]/takenBy/student")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["skips"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert sub.stats["suffix_refreshes"] == 0
        # ...and the skip was sound:
        assert_current(service, [sub], "after skipped op")

    def test_suffix_restart_used_for_downstream_changes(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["suffix_refreshes"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert_current(service, [sub], "after suffix refresh")

    def test_close_stops_maintenance(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        sub.close()
        assert not sub.active
        assert len(service.subscriptions) == 0
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert sub.stats["full_refreshes"] == 0
        sub.close()  # idempotent

    def test_observer_hooked_lazily_and_unhooked_on_last_close(self):
        """Services that never subscribe (or no longer have subscribers)
        must not pay the commit-event construction cost: no commit
        seals an event until the first subscribe(), and sealing stops
        again after the last close()."""
        service = registrar_service()
        toggle = (
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS320", "Databases")),
        )

        def sealed_after(op):
            assert service.apply(op).accepted
            return service.stats()["pipeline"]["records_sealed"]

        assert [sealed_after(op) for op in toggle] == [0, 0]
        first = service.subscribe("//course")
        second = service.subscribe("course[cno=CS240]")
        assert [sealed_after(op) for op in toggle] == [1, 2]
        first.close()
        assert [sealed_after(op) for op in toggle] == [3, 4]
        second.close()
        assert [sealed_after(op) for op in toggle] == [4, 4]
        # Re-subscribing switches events back on and stays correct.
        again = service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        assert again.result() == tuple(
            sorted(service.xpath(again.path).targets)
        )

    def test_stats_surface(self):
        service = registrar_service()
        service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        stats = service.stats()["subscriptions"]
        assert stats["subscriptions"] == 1
        assert stats["events_processed"] == 1
        # Leading-// queries consume the closure pair-delta now, so a
        # structural delete no longer costs a full re-eval; this event
        # also touches the course label step, so it lands in the
        # suffix branch of the patch path.
        assert stats["full_refreshes"] == 0
        assert stats["suffix_refreshes"] == 1

    def test_closure_consumer_counting(self):
        """Only leading-``//`` subscriptions turn on auto pair capture."""
        service = registrar_service()
        updater = service.updater
        assert updater.closure_consumers == 0
        anchored = service.subscribe("course[cno=CS240]")
        assert updater.closure_consumers == 0
        assert not updater._capturing_pairs()
        rooted = service.subscribe("//student")
        assert updater.closure_consumers == 1
        assert updater._capturing_pairs()
        rooted.close()
        assert updater.closure_consumers == 0
        assert not updater._capturing_pairs()
        anchored.close()

    def test_unmatched_insert_is_patched_not_reevaluated(self):
        """A structural insert that cannot produce result nodes is
        absorbed by the closure pair-delta: no re-evaluation at all.
        (Before closure patches, every structural op forced a full
        re-eval of leading-``//`` queries — their region depends on
        every edge under the root.)"""
        service = registrar_service()
        sub = service.subscribe("//student")
        baseline = sub.result()
        service.apply(InsertOp(".", "course", ("CS700", "Theory")))
        assert sub.stats["closure_patches"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert sub.stats["suffix_refreshes"] == 0
        assert sub.result() == baseline
        assert_current(service, [sub], "after non-student insert")

    def test_gc_delete_is_patched_not_reevaluated(self):
        """Garbage-collected nodes are shed from the cached contexts
        straight from the closure delta's removed pairs."""
        service = registrar_service()
        service.apply(InsertOp(".", "course", ("CS700", "Theory")))
        sub = service.subscribe("//student")
        service.apply(DeleteOp("course[cno=CS700]"))
        assert sub.stats["closure_patches"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert_current(service, [sub], "after GC delete")

    def test_structural_stream_never_fully_reevaluates(self):
        """Re-evaluation count over a mixed structural stream: every
        event is either skipped, patched from the closure delta, or at
        worst suffix-refreshed — never a from-the-root re-eval."""
        service = registrar_service()
        sub = service.subscribe("//student")
        stream = [
            InsertOp(".", "course", ("CS700", "Theory")),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS500]"),
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            DeleteOp("course[cno=CS700]"),
        ]
        for op in stream:
            outcome = service.apply(op)
            assert outcome.accepted
            assert_current(service, [sub], f"after {op.kind}")
        assert sub.stats["full_refreshes"] == 0
        assert sub.stats["closure_patches"] >= 2
        handled = (
            sub.stats["skips"]
            + sub.stats["closure_patches"]
            + sub.stats["suffix_refreshes"]
        )
        assert handled == len(stream)
        assert service.stats()["subscriptions"]["events_processed"] == len(
            stream
        )

    def test_student_insert_stays_current(self):
        """Ops that add result nodes via a matching deeper step leave
        the patch path (the new nodes' own edges hit step >= 1) and
        fall back to a sound full re-eval."""
        service = registrar_service()
        sub = service.subscribe("//student")
        before = sub.result()
        service.apply(
            InsertOp("course[cno=CS240]/takenBy", "student", ("999", "Zed"))
        )
        assert sub.result() != before
        assert sub.stats["full_refreshes"] == 1
        assert_current(service, [sub], "after student insert")

    def test_stats_stay_monotonic_after_close(self):
        """Regression: closing a subscription used to subtract its
        tallies from the registry totals, making deltas go negative."""
        service = registrar_service()
        sub = service.subscribe("//course")
        service.apply(
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
        )
        before = service.subscriptions.stats()["suffix_refreshes"]
        assert before == 1
        sub.close()
        assert service.subscriptions.stats()["suffix_refreshes"] == before


# ---------------------------------------------------------------------------
# Synthetic DAG: workload streams of every kind, both backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["bitset", "sets"])
def test_synthetic_workload_stream_equivalence(backend):
    service, dataset = synthetic_service(index_backend=backend)
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=10)]
    assert_current(service, subs, "initial")
    ops = []
    for cls in ("W1", "W2", "W3"):
        ops.extend(make_workload(dataset, "delete", cls, count=2))
        ops.extend(make_workload(
            dataset, "insert", cls, count=2, new_key_fraction=0.0
        ))
    ops.extend(make_workload(
        dataset, "replace", "W2", count=2, new_key_fraction=0.0
    ))
    undoable = []
    for op in ops:
        outcome = service.apply(op)
        if outcome.accepted:
            undoable.append(outcome)
        assert_current(service, subs, f"after {op.kind} {op.path}")
    assert undoable, "stream should commit at least one op"
    service.undo(undoable[-1])
    assert_current(service, subs, "after undo")
    assert service.check_consistency() == []
    # The anchored queries must actually have skipped unrelated ops —
    # otherwise the engine degrades to evaluate-per-op silently.
    stats = service.subscriptions.stats()
    assert stats["skips"] > 0


def test_synthetic_batched_sessions_equivalence():
    service, dataset = synthetic_service()
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=8)]
    deletes = make_workload(dataset, "delete", "W2", count=3)
    inserts = make_workload(
        dataset, "insert", "W2", count=3, new_key_fraction=0.0
    )
    # Interleave inside one session: one flush, one coalesced event.
    runs_before = service.maintenance_runs
    with service.batch() as batch:
        for delete_op, insert_op in zip(deletes, inserts):
            batch.apply(delete_op)
            batch.apply(insert_op)
    assert service.maintenance_runs - runs_before == 1
    assert_current(service, subs, "after interleaved batch")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Property-based: random op streams never desynchronize a subscription
# ---------------------------------------------------------------------------


@st.composite
def registrar_streams(draw):
    courses = ("CS650", "CS320", "CS240", "CS700", "CS800")
    ops = []
    for position in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(("insert", "delete", "replace", "base")))
        cno = draw(st.sampled_from(courses))
        other = draw(st.sampled_from(courses))
        if kind == "insert":
            ops.append(InsertOp(
                f"//course[cno={cno}]/prereq", "course",
                (other, f"Title {other}"),
            ))
        elif kind == "delete":
            ops.append(DeleteOp(f"//course[cno={cno}]/prereq/course"))
        elif kind == "replace":
            ops.append(ReplaceOp(
                f"//course[cno={cno}]/prereq/course", "course",
                (other, f"Title {other}"),
            ))
        else:
            ops.append(BaseUpdateOp(ops=(
                ("insert", "course", (f"X{cno}{position}", "Fresh", "CS")),
            )))
    return ops


@given(registrar_streams(), st.booleans())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_streams_keep_subscriptions_current(stream, batched):
    service = registrar_service()
    subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
    batchable = [op for op in stream if not isinstance(op, BaseUpdateOp)]
    if batched and len(batchable) >= 2:
        try:
            service.apply(batchable)
        except Exception:
            pass  # rejected mid-batch under strict=False cannot raise,
            # but keep the property total
        assert_current(service, subs, "after random batch")
    else:
        for op in stream:
            service.apply(op)
            assert_current(service, subs, "after random op")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Result deltas: (added, removed) per commit
# ---------------------------------------------------------------------------


def assert_deltas_compose(service, subs, previous, tag=""):
    """After one apply: every subscription's delta turns its previous
    result into its current one, and matches a fresh-evaluation diff."""
    for sub in subs:
        before = previous[sub.id]
        added, removed = sub.delta()
        now = set(sub.result())
        fresh = set(service.xpath(sub.path).targets)
        assert now == fresh, f"{tag}: {sub.path!r} drifted"
        if sub.generation == previous["generation"]:
            # No commit reached this subscription: nothing changed.
            assert now == before, f"{tag}: {sub.path!r} moved without event"
        else:
            assert set(removed) <= before, f"{tag}: {sub.path!r} bad removed"
            assert not (set(added) & before), f"{tag}: {sub.path!r} bad added"
            assert (before - set(removed)) | set(added) == now, (
                f"{tag}: {sub.path!r} delta does not compose: "
                f"{before} -{removed} +{added} != {now}"
            )
        previous[sub.id] = now
    previous["generation"] = max(sub.generation for sub in subs)


class TestResultDeltas:
    def test_initial_delta_is_empty(self):
        service = registrar_service()
        sub = service.subscribe("//course")
        assert sub.delta() == ((), ())

    def test_skip_yields_empty_delta(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS240]/takenBy/student")
        before = sub.result()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        assert sub.stats["skips"] == 1
        assert sub.delta() == ((), ())
        assert sub.result() == before

    def test_delete_and_insert_deltas(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = sub.result()
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        added, removed = sub.delta()
        assert added == ()
        assert set(removed) == set(before) - set(sub.result())
        service.apply(InsertOp(
            "course[cno=CS650]/prereq", "course", ("CS240", "Data Structures")
        ))
        added, removed = sub.delta()
        assert removed == ()
        assert len(added) == 1
        assert set(sub.result()) == set(added)

    def test_mixed_stream_deltas_compose(self):
        service = registrar_service()
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        previous = {sub.id: set(sub.result()) for sub in subs}
        previous["generation"] = max(sub.generation for sub in subs)
        stream = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
            ReplaceOp("course[cno=CS650]/prereq/course[cno=CS500]",
                      "course", ("CS320", "Databases")),
            DeleteOp("course[cno=NOPE]"),  # rejected: no commit, no delta
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
            InsertOp(".", "course", ("CS700", "Theory")),
        ]
        for op in stream:
            service.apply(op)
            assert_deltas_compose(service, subs, previous, f"after {op.kind}")

    def test_batch_delta_spans_the_whole_session(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = set(sub.result())
        service.apply([
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp("course[cno=CS650]/prereq", "course",
                     ("CS500", "Operating Systems")),
        ])
        added, removed = sub.delta()
        assert (before - set(removed)) | set(added) == set(sub.result())

    def test_fallback_read_delta_spans_missed_generations(self):
        # Reading mid-batch takes the fallback path; the delta then
        # spans everything since the subscription's last refresh.
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        before = set(sub.result())
        with service.batch() as batch:
            batch.apply(
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
            )
            added, removed = sub.delta()  # mid-batch: fallback refresh
            assert sub.stats["fallback_refreshes"] == 1
            assert (before - set(removed)) | set(added) == set(sub.result())


@given(registrar_streams(), st.booleans())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_random_stream_deltas_compose(stream, batched):
    service = registrar_service()
    subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
    previous = {sub.id: set(sub.result()) for sub in subs}
    previous["generation"] = max(sub.generation for sub in subs)
    batchable = [op for op in stream if not isinstance(op, BaseUpdateOp)]
    if batched and len(batchable) >= 2:
        service.apply(batchable)
        assert_deltas_compose(service, subs, previous, "after random batch")
    else:
        for op in stream:
            service.apply(op)
            assert_deltas_compose(service, subs, previous, "after random op")
    assert service.check_consistency() == []


# ---------------------------------------------------------------------------
# Fine-grained base-update events (the reverse pipeline prunes too)
# ---------------------------------------------------------------------------


class TestFineGrainedBaseEvents:
    def test_unrelated_base_update_is_skipped(self):
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        # Enrollment changes touch takenBy subtrees only: the prereq
        # subscription must skip, not re-evaluate.
        service.apply(BaseUpdateOp(ops=(
            ("insert", "enroll", ("S03", "CS650")),
        )))
        assert sub.stats["skips"] == 1
        assert sub.stats["full_refreshes"] == 0
        assert_current(service, [sub], "after unrelated base update")

    def test_relevant_base_update_updates_result(self):
        service = registrar_service()
        sub = service.subscribe("//course[cno=CS901]")
        assert sub.result() == ()
        service.apply(BaseUpdateOp(ops=(
            ("insert", "course", ("CS901", "Seminar", "CS")),
        )))
        assert len(sub.result()) == 1
        added, removed = sub.delta()
        assert removed == () and len(added) == 1
        assert_current(service, [sub], "after relevant base update")

    def test_direct_apply_base_update_also_fine_grained(self):
        # The unlocked-core path (no plan/commit) emits the same event,
        # published at once through the commit pipeline's tail.
        service = registrar_service()
        sub = service.subscribe("course[cno=CS650]/prereq/course")
        events = []
        service.changefeed(on_event=events.append)
        from repro.relational.database import RelationalDelta

        delta = RelationalDelta()
        delta.insert("enroll", ("S01", "CS320"))
        service.updater.apply_base_update(delta)
        assert len(events) == 1
        assert not events[0].coarse
        assert all(rec.kind == "insert" for rec in events[0].edges)
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        )

    def test_base_update_losses_and_gains_are_typed(self):
        service = registrar_service()
        events = []
        service.changefeed(on_event=events.append)
        service.apply(BaseUpdateOp(ops=(
            ("delete", "prereq", ("CS650", "CS320")),
            ("insert", "prereq", ("CS650", "CS240")),
        )))
        [event] = events
        assert not event.coarse
        kinds = {(rec.kind, rec.parent_type, rec.child_type)
                 for rec in event.edges}
        assert ("delete", "prereq", "course") in kinds
        assert ("insert", "prereq", "course") in kinds

    def test_rebuild_stays_coarse(self):
        service = registrar_service()
        events = []
        service.changefeed(on_event=events.append)
        sub = service.subscribe("//course")
        service.updater.rebuild()
        assert events and events[-1].coarse
        assert events[-1].reason == "rebuild"
        assert_current(service, [sub], "after rebuild")


# ---------------------------------------------------------------------------
# Cost-based coarse fallback
# ---------------------------------------------------------------------------


class TestCoarseFallback:
    def test_threshold_zero_coarsens_every_fine_event(self):
        service = registrar_service()
        service.subscriptions.coarse_threshold = 0
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        stats = service.subscriptions.stats()
        assert stats["coarse_fallbacks"] == len(subs)
        assert stats["skips"] == 0
        assert stats["full_refreshes"] == len(subs)
        assert_current(service, subs, "after coarsened event")

    def test_default_threshold_leaves_small_events_fine(self):
        service = registrar_service()
        service.subscribe("course[cno=CS240]/takenBy/student")
        service.apply(DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"))
        stats = service.subscriptions.stats()
        assert stats["coarse_fallbacks"] == 0
        assert stats["skips"] == 1

    def test_threshold_surfaces_in_stats_and_config(self):
        from repro.subscribe.engine import DEFAULT_COARSE_THRESHOLD

        service = registrar_service()
        assert service.subscriptions.stats()["coarse_threshold"] == (
            DEFAULT_COARSE_THRESHOLD
        )
        service.subscriptions.coarse_threshold = 7
        assert service.subscriptions.stats()["coarse_threshold"] == 7
        # The threshold is a registry attribute, not a config field.
        assert "coarse_event_threshold" not in service.config.to_dict()

    def test_equivalence_preserved_under_tiny_threshold(self):
        service = registrar_service()
        service.subscriptions.coarse_threshold = 1
        subs = [service.subscribe(q) for q in REGISTRAR_QUERIES]
        for op in (
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            InsertOp(".", "course", ("CS700", "Theory")),
            BaseUpdateOp(ops=(
                ("insert", "course", ("CS777", "Compilers", "CS")),
            )),
        ):
            service.apply(op)
            assert_current(service, subs, "tiny threshold")
        assert service.check_consistency() == []
