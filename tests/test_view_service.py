"""Tests for the plan/commit ``ViewService`` façade and ``ViewConfig``.

The acceptance contract of the service layer:

- for every op kind, ``service.plan(op).commit()`` yields ΔV/ΔR equal to
  ``service.apply(op)`` on an identically built fresh view;
- an aborted plan leaves store, ``M`` and ``L`` byte-identical;
- the plan protocol is enforced (one outstanding plan, no double
  commit, staleness detection);
- concurrent readers are safe while updates and their background
  maintenance run under the write lock.
"""

import threading
import time
import warnings

import pytest

from repro.core.updater import PlanState
from repro.errors import PlanError, ReproError, StalePlanError
from repro.ops import BaseUpdateOp, DeleteOp, InsertOp, ReplaceOp
from repro.relview.insert import reset_fresh_counter
from repro.service import ViewConfig, ViewService, open_view
from repro.workloads.queries import make_workload
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic


def registrar_service(**config) -> ViewService:
    atg, db = build_registrar()
    return open_view(atg, db, config=ViewConfig(**config))


def synthetic_service(**config) -> tuple[ViewService, object]:
    dataset = build_synthetic(SyntheticConfig(n_c=120, seed=3))
    service = open_view(
        dataset.atg, dataset.db, config=ViewConfig(**config)
    )
    return service, dataset


REGISTRAR_OPS = [
    DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
    InsertOp("course[cno=CS650]/prereq", "course", ("CS500", "Operating Systems")),
    ReplaceOp(
        "course[cno=CS650]/prereq/course[cno=CS320]",
        "course",
        ("CS500", "Operating Systems"),
    ),
    BaseUpdateOp(
        ops=(
            ("insert", "course", ("CS777", "Compilers", "CS")),
            ("insert", "prereq", ("CS650", "CS777")),
        )
    ),
]


def synthetic_ops(dataset) -> list:
    """One op per kind against the synthetic dataset."""
    delete_op = make_workload(dataset, "delete", "W2", count=1)[0]
    insert_op = make_workload(
        dataset, "insert", "W2", count=1, new_key_fraction=0.0
    )[0]
    replace_op = make_workload(
        dataset, "replace", "W2", count=1, new_key_fraction=0.0
    )[0]
    return [delete_op, insert_op, replace_op]


def delta_rows(delta):
    if delta is None:
        return None
    return [
        (op.kind, op.parent_type, op.child_type, op.parent, op.child)
        if hasattr(op, "parent_type")
        else (op.kind, op.relation, op.row)
        for op in delta
    ]


def assert_equivalent(out_apply, out_commit, svc_apply, svc_commit):
    assert out_apply.accepted and out_commit.accepted
    assert delta_rows(out_apply.delta_v) == delta_rows(out_commit.delta_v)
    assert delta_rows(out_apply.delta_r) == delta_rows(out_commit.delta_r)
    assert out_apply.targets == out_commit.targets
    assert out_apply.side_effects == out_commit.side_effects
    assert svc_apply.reach.equals(svc_commit.reach)
    assert svc_apply.check_consistency() == []
    assert svc_commit.check_consistency() == []


class TestPlanCommitEquivalence:
    @pytest.mark.parametrize("index", range(len(REGISTRAR_OPS)))
    def test_registrar(self, index):
        op = REGISTRAR_OPS[index]
        reset_fresh_counter()
        a = registrar_service()
        out_apply = a.apply(op)
        reset_fresh_counter()
        b = registrar_service()
        plan = b.plan(op)
        assert plan.state is PlanState.PLANNED
        out_commit = plan.commit()
        assert plan.state is PlanState.COMMITTED
        assert_equivalent(out_apply, out_commit, a, b)

    @pytest.mark.parametrize("index", range(3))
    def test_synthetic(self, index):
        reset_fresh_counter()
        a, dataset_a = synthetic_service(side_effects="propagate")
        op = synthetic_ops(dataset_a)[index]
        out_apply = a.apply(op)
        reset_fresh_counter()
        b, _ = synthetic_service(side_effects="propagate")
        out_commit = b.plan(op).commit()
        assert_equivalent(out_apply, out_commit, a, b)

    def test_replace_node_with_itself_is_a_noop(self):
        """Regression: self-replacement used to delete the base rows
        while the view edge survived, leaving base and view inconsistent
        (the insertion translation runs on the pre-delete snapshot)."""
        service = registrar_service()
        rows_before = sorted(service.db.rows("prereq"))
        out = service.apply(
            ReplaceOp(
                "course[cno=CS650]/prereq/course[cno=CS320]",
                "course",
                ("CS320", "Databases"),
            )
        )
        assert out.accepted
        assert sorted(service.db.rows("prereq")) == rows_before
        assert service.check_consistency() == []

    def test_replace_self_among_others(self):
        """Replacing {CS240, CS500} with CS240: only CS500's edge moves."""
        service = registrar_service(side_effects="propagate")
        service.apply(
            InsertOp("//course[cno=CS320]/prereq", "course",
                     ("CS500", "Operating Systems"))
        )
        out = service.apply(
            ReplaceOp("//course[cno=CS320]/prereq/course", "course",
                      ("CS240", "Data Structures"))
        )
        assert out.accepted
        assert sorted(service.db.rows("prereq")) == sorted(
            [("CS650", "CS320"), ("CS320", "CS240")]
        )
        assert service.check_consistency() == []

    def test_synthetic_base_update(self):
        # ΔR harvested from a view update, then replayed as a base update.
        scratch, dataset = synthetic_service(side_effects="propagate")
        delete_op = make_workload(dataset, "delete", "W2", count=1)[0]
        delta = scratch.apply(delete_op).delta_r
        op = BaseUpdateOp.from_delta(delta)

        a, _ = synthetic_service(side_effects="propagate")
        out_apply = a.apply(op)
        b, _ = synthetic_service(side_effects="propagate")
        out_commit = b.plan(op).commit()
        assert_equivalent(out_apply, out_commit, a, b)


class TestPlanPreview:
    def test_foreground_phases_exposed_before_mutation(self):
        service = registrar_service()
        rows_before = len(service.db.table("prereq"))
        plan = service.plan(REGISTRAR_OPS[0])
        # Foreground phases ran...
        assert plan.targets
        assert plan.delta_v is not None and len(plan.delta_v) == 1
        assert plan.delta_r is not None and len(plan.delta_r) == 1
        for phase in ("validate", "xpath", "translate_v", "translate_r"):
            assert phase in plan.timings
        # ...but nothing was applied or maintained yet.
        assert "apply" not in plan.timings and "maintain" not in plan.timings
        assert len(service.db.table("prereq")) == rows_before
        payload = plan.to_dict()
        assert payload["state"] == "planned"
        assert payload["op"] == REGISTRAR_OPS[0].to_dict()
        plan.abort()

    def test_rejected_plan_carries_reason(self):
        service = registrar_service(strict=False)
        plan = service.plan(DeleteOp("course[cno=NOPE]"))
        assert plan.state is PlanState.REJECTED
        assert not plan.accepted
        assert "selects no node" in plan.outcome.reason
        with pytest.raises(PlanError, match="rejected"):
            plan.commit()

    def test_strict_rejection_raises_at_plan_time(self):
        service = registrar_service()
        from repro.errors import UpdateRejectedError

        with pytest.raises(UpdateRejectedError):
            service.plan(DeleteOp("course[cno=NOPE]"))


class TestAbort:
    @pytest.mark.parametrize(
        "op",
        [
            REGISTRAR_OPS[0],
            REGISTRAR_OPS[1],
            REGISTRAR_OPS[2],
            InsertOp(".", "course", ("CS901", "Brand New")),
        ],
    )
    def test_abort_leaves_state_byte_identical(self, op):
        reset_fresh_counter()
        planned = registrar_service()
        untouched = registrar_service()
        plan = planned.plan(op)
        plan.abort()
        assert plan.state is PlanState.ABORTED
        sa, sb = planned.store, untouched.store
        assert sa._intern == sb._intern
        assert sa._next_id == sb._next_id
        assert sa.node_type == sb.node_type
        assert sa.node_sem == sb.node_sem
        assert sa.edges == sb.edges
        assert sa.children == sb.children
        assert sa.parents == sb.parents
        assert list(planned.topo) == list(untouched.topo)
        assert planned.reach.equals(untouched.reach)
        assert planned.check_consistency() == []

    def test_abort_then_apply_matches_fresh_state(self):
        op = InsertOp(".", "course", ("CS700", "Theory"))
        planned = registrar_service()
        planned.plan(op).abort()
        out = planned.apply(op)
        fresh = registrar_service()
        out_fresh = fresh.apply(op)
        assert delta_rows(out.delta_v) == delta_rows(out_fresh.delta_v)
        assert planned.reach.equals(fresh.reach)


class TestPlanProtocol:
    def test_only_one_outstanding_plan(self):
        service = registrar_service()
        plan = service.plan(REGISTRAR_OPS[0])
        with pytest.raises(PlanError, match="outstanding"):
            service.plan(REGISTRAR_OPS[1])
        with pytest.raises(PlanError, match="outstanding"):
            service.apply(REGISTRAR_OPS[1])  # apply plans internally too
        plan.abort()
        assert service.apply(REGISTRAR_OPS[1]).accepted

    def test_double_commit_rejected(self):
        service = registrar_service()
        plan = service.plan(REGISTRAR_OPS[0])
        plan.commit()
        with pytest.raises(PlanError, match="committed"):
            plan.commit()
        with pytest.raises(PlanError, match="committed"):
            plan.abort()

    def test_abort_is_idempotent(self):
        service = registrar_service()
        plan = service.plan(REGISTRAR_OPS[0])
        plan.abort()
        plan.abort()  # no-op
        with pytest.raises(PlanError):
            plan.commit()

    def test_intervening_session_flush_staleness(self):
        service = registrar_service(side_effects="propagate")
        plan = service.plan(REGISTRAR_OPS[0])
        plan.abort()
        # A flushed batch session bumps the version...
        service.apply([InsertOp(".", "course", ("CS888", "Logic"))])
        # ...so a plan prepared before it must refuse to commit.
        stale = service.plan(REGISTRAR_OPS[1])
        service.updater._version += 1  # simulate any later mutation
        with pytest.raises(StalePlanError):
            stale.commit()

    def test_base_update_blocked_while_plan_outstanding(self):
        """Regression: propagation used to trip over the plan's
        pre-interned edge-less nodes and corrupt the store."""
        service = registrar_service()
        plan = service.plan(InsertOp(".", "course", ("CS900", "X")))
        from repro.relational.database import RelationalDelta

        delta = RelationalDelta()
        delta.insert("course", ("CS900", "X", "CS"))
        with pytest.raises(PlanError, match="outstanding"):
            service.updater.apply_base_update(delta)
        # The store is untouched and the plan still commits cleanly.
        assert service.check_consistency() == []
        assert plan.commit().accepted
        assert service.check_consistency() == []

    def test_commit_failure_does_not_wedge_the_updater(self):
        """Regression: a commit-time error used to leave the internal
        plan outstanding forever, blocking every subsequent write."""
        service = registrar_service(side_effects="propagate")
        with pytest.raises(ReproError):
            with service.batch() as batch:
                batch.apply(DeleteOp(
                    "course[cno=CS650]/prereq/course[cno=CS320]"
                ))  # session now has pending maintenance...
                batch.apply(REGISTRAR_OPS[3])  # ...so a base update fails
        # The updater is not wedged: planning and applying still work.
        out = service.apply(InsertOp(".", "course", ("CS700", "Theory")))
        assert out.accepted
        assert service.check_consistency() == []

    def test_failed_plan_cannot_be_aborted(self):
        service = registrar_service(side_effects="propagate")
        with service.batch() as batch:
            batch.apply(DeleteOp(
                "course[cno=CS650]/prereq/course[cno=CS320]"
            ))  # make the session's maintenance pending
            plan = service.updater.plan(REGISTRAR_OPS[3])
            with pytest.raises(ReproError):
                plan.commit()  # base update with session pending: fails
            assert plan.state is PlanState.FAILED
            with pytest.raises(PlanError, match="failed"):
                plan.abort()
            batch.apply(InsertOp(".", "course", ("CS700", "Theory")))
        assert service.check_consistency() == []

    def test_abort_on_rejected_plan_keeps_the_rejection(self):
        """Regression: generic cleanup (try/finally plan.abort()) used to
        flip a rejected plan to 'aborted', reporting accepted=True."""
        service = registrar_service(strict=False)
        plan = service.plan(DeleteOp("course[cno=NOPE]"))
        plan.abort()  # no-op on a rejected plan
        assert plan.state is PlanState.REJECTED
        assert plan.accepted is False
        assert plan.to_dict()["accepted"] is False
        assert plan.to_dict()["state"] == "rejected"

    def test_nested_service_calls_inside_batch_do_not_deadlock(self):
        """The write lock is reentrant for its owner: service calls made
        inside `with service.batch():` nest instead of hanging."""
        service = registrar_service(side_effects="propagate")
        with service.batch():
            out = service.apply(
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
            )
            assert out.accepted
            assert len(service.xpath("//course").targets) == 4
            plan = service.plan(InsertOp(".", "course", ("CS700", "Theory")))
            assert plan.commit().accepted
        assert service.check_consistency() == []

    def test_strict_batch_failure_carries_partial_outcomes(self):
        from repro.errors import UpdateRejectedError

        service = registrar_service(side_effects="propagate")
        ops = [
            DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
            DeleteOp("course[cno=NOPE]"),  # rejected -> raises (strict)
            InsertOp(".", "course", ("CS700", "Theory")),
        ]
        with pytest.raises(UpdateRejectedError) as excinfo:
            service.apply(ops)
        done = excinfo.value.batch_outcomes
        assert len(done) == 1 and done[0].accepted
        # The committed prefix is undoable from the carried outcomes.
        service.undo(done[0])
        assert service.check_consistency() == []

    def test_batched_base_update_rejected_upfront(self):
        service = registrar_service()
        with pytest.raises(PlanError, match="batched apply"):
            service.apply([REGISTRAR_OPS[0], REGISTRAR_OPS[3]])
        # Nothing was applied: the first op is still available.
        assert service.apply(REGISTRAR_OPS[0]).accepted


class TestApply:
    def test_apply_accepts_wire_dicts(self):
        service = registrar_service()
        out = service.apply(
            {"op": "delete",
             "path": "course[cno=CS650]/prereq/course[cno=CS320]"}
        )
        assert out.accepted
        assert service.check_consistency() == []

    def test_apply_list_routes_through_one_batch(self):
        service = registrar_service(side_effects="propagate")
        runs_before = service.maintenance_runs
        outcomes = service.apply(
            [
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]"),
                InsertOp(".", "course", ("CS700", "Theory")),
                {"op": "delete",
                 "path": "//course[cno=CS320]/prereq/course[cno=CS240]"},
            ]
        )
        assert [o.accepted for o in outcomes] == [True, True, True]
        assert service.maintenance_runs - runs_before == 1  # one flush
        assert service.check_consistency() == []

    def test_batch_context_manager(self):
        service = registrar_service(side_effects="propagate")
        runs_before = service.maintenance_runs
        with service.batch() as batch:
            out1 = batch.apply(
                DeleteOp("course[cno=CS650]/prereq/course[cno=CS320]")
            )
            out2 = batch.apply(InsertOp(".", "course", ("CS700", "Theory")))
        assert out1.accepted and out2.accepted
        assert service.maintenance_runs - runs_before == 1
        assert service.check_consistency() == []

    def test_reads(self):
        service = registrar_service()
        assert len(service.xpath("//course").targets) == 4
        tree = service.xml_tree()
        assert tree.tag == "db"
        stats = service.stats()
        assert stats["nodes"] == service.store.num_nodes
        assert stats["config"]["side_effects"] == "abort"

    def test_undo(self):
        service = registrar_service()
        before = service.xml_tree()
        out = service.apply(REGISTRAR_OPS[0])
        service.undo(out)
        from repro.xmltree.tree import tree_equal

        assert tree_equal(service.xml_tree(), before)
        assert service.check_consistency() == []


class TestViewConfig:
    def test_round_trip(self):
        config = ViewConfig(
            index_backend="sets", side_effects="propagate", strict=False,
            seed=7,
        )
        assert ViewConfig.from_dict(config.to_dict()) == config

    def test_invalid_values_rejected(self):
        with pytest.raises(ReproError):
            ViewConfig(side_effects="maybe")
        with pytest.raises(ReproError):
            ViewConfig(index_backend="quantum")
        with pytest.raises(ReproError):
            ViewConfig(sat_solver="magic")
        with pytest.raises(ReproError, match="unknown ViewConfig"):
            ViewConfig.from_dict({"nope": 1})

    def test_policy_mapping(self):
        from repro.core.updater import SideEffectPolicy

        assert ViewConfig().policy is SideEffectPolicy.ABORT
        assert (
            ViewConfig(side_effects="propagate").policy
            is SideEffectPolicy.PROPAGATE
        )

    def test_config_reaches_the_updater(self):
        service = registrar_service(
            index_backend="sets", strict=False, verify_each_update=True
        )
        assert service.updater.index_backend == "sets"
        assert service.updater.strict is False
        assert service.updater.verify_each_update is True


class TestLegacyShims:
    """The gate that guarded the migration off the removed
    ``insert()``/``delete()`` shims stays: deprecated APIs must not be
    called from inside the package."""

    def test_repro_internal_callers_fail_the_build(self):
        """The CI gate: a DeprecationWarning raised *from inside repro*
        is an error.

        The filterwarnings config escalates DeprecationWarning to an
        error when the warning originates in a ``repro.*`` module.
        Simulate an internal caller of a deprecated API by warning from
        a ``repro.``-named module.
        """
        code = compile(
            "warnings.warn('deprecated', DeprecationWarning)",
            "<repro-internal>",
            "exec",
        )
        with pytest.raises(DeprecationWarning):
            exec(
                code,
                {"__name__": "repro._unmigrated_caller",
                 "warnings": warnings},
            )


class TestReadWriteUpgrade:
    """Regression: a reader calling a write API used to deadlock forever
    in ``acquire_write`` (the writer waits for readers — including the
    upgrading thread itself — to drain).  The lock now detects the
    upgrade attempt and raises."""

    def test_raw_lock_upgrade_raises(self):
        from repro.service.rwlock import RWLock

        lock = RWLock()
        lock.acquire_read()
        try:
            with pytest.raises(RuntimeError, match="upgrade"):
                lock.acquire_write()
        finally:
            lock.release_read()
        # The failed upgrade leaves the lock fully usable.
        lock.acquire_write()
        lock.release_write()
        lock.acquire_read()
        lock.release_read()

    def test_apply_inside_read_raises_instead_of_hanging(self):
        service = registrar_service()
        with service._lock.read():
            with pytest.raises(RuntimeError, match="read→write upgrade"):
                service.apply(REGISTRAR_OPS[0])
        # ...and the write path works once the read lock is released.
        assert service.apply(REGISTRAR_OPS[0]).accepted

    def test_plan_inside_read_raises(self):
        service = registrar_service()
        with service._lock.read():
            with pytest.raises(RuntimeError, match="upgrade"):
                service.plan(REGISTRAR_OPS[1])

    def test_upgrade_error_from_reader_thread(self):
        """The deadlock scenario end to end: a reader thread that turns
        around and writes gets an exception, not a hang."""
        service = registrar_service()
        failures: list[BaseException] = []

        def reader_turned_writer():
            try:
                with service._lock.read():
                    service.apply(REGISTRAR_OPS[0])
            except RuntimeError as exc:
                failures.append(exc)

        t = threading.Thread(target=reader_turned_writer)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive(), "reader thread deadlocked"
        assert len(failures) == 1 and "upgrade" in str(failures[0])

    def test_nested_read_does_not_deadlock_behind_waiting_writer(self):
        """Regression: a thread re-entering the read side while a writer
        queued used to deadlock silently (the writer waits on readers,
        the nested read waits on the writer)."""
        from repro.service.rwlock import RWLock

        lock = RWLock()
        lock.acquire_read()
        writer_started = threading.Event()

        def writer():
            writer_started.set()
            lock.acquire_write()
            lock.release_write()

        t = threading.Thread(target=writer)
        t.start()
        writer_started.wait()
        time.sleep(0.05)  # let the writer block in acquire_write
        lock.acquire_read()  # nested read: must be granted immediately
        lock.release_read()
        lock.release_read()
        t.join(timeout=10)
        assert not t.is_alive(), "writer never acquired after reads drained"

    def test_writer_may_still_read_reentrantly(self):
        service = registrar_service(side_effects="propagate")
        expected = len(service.xpath("//course").targets)
        with service.batch():
            assert len(service.xpath("//course").targets) == expected


class TestConcurrency:
    def test_readers_safe_during_updates(self):
        service, dataset = synthetic_service(
            side_effects="propagate", strict=False
        )
        ops = make_workload(dataset, "delete", "W2", count=8)
        errors: list[BaseException] = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    service.xpath("//cnode")
                    service.xml_tree()
                except BaseException as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(3)]
        for t in threads:
            t.start()
        try:
            for op in ops:
                service.apply(op)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=10)
        assert errors == []
        assert service.check_consistency() == []

    def test_plan_commit_from_another_thread(self):
        service = registrar_service()
        plan = service.plan(REGISTRAR_OPS[0])
        result: list = []

        def committer():
            result.append(plan.commit())

        t = threading.Thread(target=committer)
        t.start()
        t.join(timeout=10)
        assert result and result[0].accepted
        assert service.check_consistency() == []
