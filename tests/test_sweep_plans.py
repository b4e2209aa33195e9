"""Compiled delta-join plans against the nested-loop oracle.

The ΔR side-effect sweep and the edge-view point queries run on plans
compiled once per view (:mod:`repro.views.plans`).  These tests pin
them to the algorithm they replaced, kept in ``tests/sweep_oracle.py``:

- on equality-only views (every shipped ATG) the compiled sweep finds
  the same multiset of ``(view, row, atoms)`` and Algorithm insert
  produces the same ΔR, ``derivations_checked``, SAT sizes and rejection
  reasons, over random registrar instances and small generated streams
  of every ``workload_gen`` pattern;
- on a view with a non-equality condition it finds the subset of the
  oracle's derivations whose concrete comparisons hold;
- ``matching_rows`` / ``rows_referencing`` equal the narrowed
  ``SPJQuery`` evaluation;
- no plan of a shipped ATG scans a relation.
"""

from __future__ import annotations

import random
from collections import Counter
from contextlib import contextmanager
from unittest.mock import patch

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.updater as updater_module
import repro.relview.insert as insert_module
from repro import DeleteOp, InsertOp, ViewConfig, open_view
from repro.atg.model import ATG, QueryRule
from repro.bench.workload_gen import PATTERNS, WorkloadSpec, generate_ops
from repro.core.explain import explain_views
from repro.errors import UpdateRejectedError
from repro.relational.conditions import And, Col, Const, Eq, Ne, Param
from repro.relational.query import SPJQuery
from repro.relview.symbolic import SymVar
from repro.views.plans import PROBE, SCAN
from repro.views.registry import build_registry
from repro.workloads.bom import build_bom
from repro.workloads.chains import build_chain
from repro.workloads.registrar import build_registrar
from repro.workloads.synthetic import SyntheticConfig, build_synthetic
from sweep_oracle import (
    narrowed_matching_rows,
    narrowed_rows_referencing,
    sweep_side_effects,
)
from test_property_relview import build_instance, registrar_instances

COMPILED_SWEEP = insert_module._sweep_side_effects


def _attempt(sweep, args, kwargs):
    """Run Algorithm insert with ``sweep``; (derivations, plan, reason)."""
    seen: list = []

    def capture(registry, db, templates):
        out = sweep(registry, db, templates)
        seen.extend(out)
        return out

    with patch.object(insert_module, "_sweep_side_effects", capture):
        try:
            plan = insert_module.translate_insertions(*args, **kwargs)
        except UpdateRejectedError as exc:
            return seen, None, str(exc)
    return seen, plan, None


def _summary(plan):
    if plan is None:
        return None
    return (
        [(op.kind, op.relation, op.row) for op in plan.delta_r],
        plan.derivations_checked,
        plan.num_vars,
        plan.num_clauses,
        plan.solver,
    )


def _multiset(derivations):
    return Counter((d.view_name, d.row, d.atoms) for d in derivations)


@contextmanager
def differential(keep=None):
    """Check every insert translation against the oracle sweep.

    Inside the block, each ``translate_insertions`` the updater makes is
    run twice from the same solver and fresh-value state: with the
    oracle sweep, then with the compiled one, whose result is kept.
    ``keep`` filters the oracle's derivations before the multisets are
    compared, for views with non-equality conditions; without it (all
    views equality-only) the outcomes must agree too.  Yields the list of
    mismatches found.
    """
    mismatches: list = []

    def checked(*args, **kwargs):
        rng = kwargs.get("rng")
        rng_state = rng.getstate() if rng is not None else None
        counter = insert_module._fresh_counter[0]
        oracle = _attempt(sweep_side_effects, args, kwargs)
        if rng is not None:
            rng.setstate(rng_state)
        insert_module._fresh_counter[0] = counter
        compiled = _attempt(COMPILED_SWEEP, args, kwargs)
        expected = _multiset(d for d in oracle[0] if keep is None or keep(d))
        if _multiset(compiled[0]) != expected:
            mismatches.append(("derivations", expected, _multiset(compiled[0])))
        if keep is None:
            if (_summary(oracle[1]), oracle[2]) != (
                _summary(compiled[1]), compiled[2]
            ):
                mismatches.append(
                    ("outcome", oracle[1:], (_summary(compiled[1]), compiled[2]))
                )
        if compiled[2] is not None:
            raise UpdateRejectedError(compiled[2])
        return compiled[1]

    with patch.object(updater_module, "translate_insertions", checked):
        yield mismatches


def _apply_all(service, ops, mismatches):
    accepted = 0
    for op in ops:
        outcome = service.apply(op)
        accepted += outcome.accepted
        assert mismatches == [], mismatches
    assert service.check_consistency() == []
    return accepted


# ---------------------------------------------------------------------------
# Differential: compiled sweep vs the nested-loop oracle
# ---------------------------------------------------------------------------


@st.composite
def registrar_ops(draw, n_courses):
    """A short op list over a random registrar instance's courses."""
    ops = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["root", "prereq", "student", "delete"]))
        c = draw(st.integers(min_value=0, max_value=n_courses + 1))
        d = draw(st.integers(min_value=0, max_value=n_courses + 1))
        # An odd title conflicts with the stored one: a rejection.
        title = draw(st.sampled_from([f"t{c}", f"t{c}", f"odd{c}"]))
        if kind == "root":
            ops.append(InsertOp(".", "course", (f"C{c:02d}", title)))
        elif kind == "prereq":
            ops.append(
                InsertOp(
                    f"course[cno='C{d:02d}']/prereq", "course",
                    (f"C{c:02d}", title),
                )
            )
        elif kind == "student":
            s = draw(st.integers(min_value=0, max_value=4))
            ops.append(
                InsertOp(
                    f"course[cno='C{c:02d}']/takenBy", "student",
                    (f"S{s:02d}", f"n{s}"),
                )
            )
        else:
            ops.append(DeleteOp(f"//course[cno='C{c:02d}']/prereq/course"))
    return ops


@st.composite
def _dangling(draw, n_courses):
    """prereq/enroll rows naming a course or student not yet in the base
    (so the published view stays acyclic): inserting it later derives
    extra edges, i.e. side effects."""
    ids = st.integers(min_value=0, max_value=n_courses + 1)
    missing = st.integers(min_value=n_courses, max_value=n_courses + 1)
    prereqs = draw(st.lists(st.tuples(ids, missing), max_size=3))
    enrolls = draw(
        st.lists(st.tuples(st.integers(min_value=3, max_value=4), ids), max_size=3)
    )
    return prereqs, enrolls


def _add_dangling(db, dangling):
    prereqs, enrolls = dangling
    for p, c in prereqs:
        row = (f"C{p:02d}", f"C{c:02d}")
        if not db.table("prereq").has_key(row):
            db.insert("prereq", row)
    for s, c in enrolls:
        row = (f"S{s:02d}", f"C{c:02d}")
        if not db.table("enroll").has_key(row):
            db.insert("enroll", row)


@given(st.data())
@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_registrar_matches_oracle(data):
    spec = data.draw(registrar_instances())
    ops = data.draw(registrar_ops(spec[0]))
    atg, db = build_instance(spec)
    _add_dangling(db, data.draw(_dangling(spec[0])))
    service = open_view(atg, db, ViewConfig(strict=False))
    with differential() as mismatches:
        _apply_all(service, ops, mismatches)


@given(
    pattern=st.sampled_from(PATTERNS),
    seed=st.integers(min_value=0, max_value=10_000),
)
@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_generated_streams_match_oracle(pattern, seed):
    spec = WorkloadSpec(
        workload="synthetic:80", ops=8, seed=seed, pattern=pattern,
    )
    ops = list(generate_ops(spec))
    dataset = build_synthetic(SyntheticConfig(n_c=80))
    service = open_view(dataset.atg, dataset.db.copy(), ViewConfig(strict=False))
    with differential() as mismatches:
        accepted = _apply_all(service, ops, mismatches)
    assert accepted == len(ops)  # the generator pre-validates every op


def test_benchmark_shaped_churn_matches_oracle():
    spec = WorkloadSpec(workload="synthetic:120", ops=40, seed=3, pattern="churn")
    ops = list(generate_ops(spec))
    dataset = build_synthetic(SyntheticConfig(n_c=120))
    service = open_view(dataset.atg, dataset.db.copy(), ViewConfig(strict=False))
    with differential() as mismatches:
        assert _apply_all(service, ops, mismatches) == len(ops)


# ---------------------------------------------------------------------------
# Non-equality conditions
# ---------------------------------------------------------------------------


def _replace_rule(atg: ATG, parent: str, child: str, query: SPJQuery) -> ATG:
    rules = [
        QueryRule(parent, child, query)
        if (r.parent, r.child) == (parent, child) else r
        for r in atg.rules.values()
    ]
    return ATG(atg.dtd, atg.signatures, rules)


def _registrar_with_ne() -> tuple[ATG, object]:
    """The registrar ATG where a course is never its own prerequisite."""
    atg, db = build_registrar()
    query = atg.rules[("prereq", "course")].query
    where = And(
        Eq(Col("p", "cno1"), Param("cno")),
        Eq(Col("p", "cno2"), Col("c", "cno")),
        Ne(Col("p", "cno1"), Col("c", "cno")),
    )
    return _replace_rule(
        atg, "prereq", "course",
        SPJQuery(query.name, query.tables, query.project, where),
    ), db


def _ne_holds(derivation) -> bool:
    """The concrete ``p.cno1 <> c.cno`` of an edge_prereq_course row."""
    if derivation.view_name != "edge_prereq_course":
        return True
    left, right = derivation.row[0], derivation.row[1]
    if isinstance(left, SymVar) or isinstance(right, SymVar):
        return True
    return left != right


def test_ne_condition_drops_false_derivation():
    atg, db = _registrar_with_ne()
    # A dangling self-loop: the new course would be its own prerequisite,
    # which the Ne condition rules out of the view.
    db.insert("prereq", ("CS999", "CS999"))
    op = InsertOp(".", "course", ("CS999", "Theory"))

    oracle_service = open_view(atg, db.copy(), ViewConfig(strict=False))
    with patch.object(insert_module, "_sweep_side_effects", sweep_side_effects):
        rejected = oracle_service.apply(op)
    assert not rejected.accepted
    assert "unconditional side effect on view edge_prereq_course" in rejected.reason

    service = open_view(atg, db, ViewConfig(strict=False))
    with differential(keep=_ne_holds) as mismatches:
        outcome = service.apply(op)
    assert mismatches == []
    assert outcome.accepted, outcome.reason
    assert ("course", ("CS999", "Theory", "CS")) in [
        (o.relation, o.row) for o in outcome.delta_r
    ]
    assert service.check_consistency() == []


@given(st.data())
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_ne_view_is_oracle_subset(data):
    spec = data.draw(registrar_instances())
    ops = data.draw(registrar_ops(spec[0]))
    _, db = build_instance(spec)
    atg, _ = _registrar_with_ne()
    loops = data.draw(st.lists(st.integers(min_value=0, max_value=9), max_size=3))
    for c in set(loops):
        db.insert("prereq", (f"C{c:02d}", f"C{c:02d}"))
    service = open_view(atg, db, ViewConfig(strict=False))
    with differential(keep=_ne_holds) as mismatches:
        _apply_all(service, ops, mismatches)


def _registrar_with_dept_join() -> ATG:
    """The registrar ATG whose root lists CS courses beside a project of
    the same department: a join on a non-key column."""
    atg, _ = build_registrar()
    query = SPJQuery(
        "Qdb_course",
        [("course", "c"), ("project", "j")],
        [("cno", Col("c", "cno")), ("title", Col("c", "title"))],
        And(
            Eq(Col("c", "dept"), Const("CS")),
            Eq(Col("c", "dept"), Col("j", "dept")),
        ),
    )
    return _replace_rule(atg, "db", "course", query)


def test_non_key_join_probes_or_scans():
    atg = _registrar_with_dept_join()
    _, db = build_registrar()
    plans = build_registry(atg, db).view("db", "course").plans
    # A new course's dept may still be a variable when the sweep reaches
    # the project occurrence, so that probe falls back to a scan then.
    assert repr(plans.sweep[0]) == (
        "<JoinPlan edge_db_course[seed c]: c:seed -> j:project "
        "probe-or-scan(dept)+U>"
    )
    assert [step.access for step in plans.matching.steps] == [PROBE, PROBE]

    db.insert("project", ("P1", "x", "CS"))
    db.insert("project", ("P2", "y", "EE"))
    service = open_view(atg, db, ViewConfig(strict=False))
    op = InsertOp("course[cno='CS650']/prereq", "course", ("CS777", "New"))
    with differential() as mismatches:
        outcome = service.apply(op)
    assert mismatches == []
    assert outcome.accepted, outcome.reason
    # Not listed at the root: the new course's dept avoids 'CS'.
    [row] = [o.row for o in outcome.delta_r if o.relation == "course"]
    assert row[:2] == ("CS777", "New") and row[2] != "CS"
    assert service.check_consistency() == []


@given(st.data())
@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_non_key_join_matches_oracle(data):
    spec = data.draw(registrar_instances())
    ops = data.draw(registrar_ops(spec[0]))
    _, db = build_instance(spec)
    _add_dangling(db, data.draw(_dangling(spec[0])))
    db.insert("project", ("P1", "x", "CS"))
    db.insert("project", ("P2", "y", "EE"))
    service = open_view(_registrar_with_dept_join(), db, ViewConfig(strict=False))
    with differential() as mismatches:
        _apply_all(service, ops, mismatches)


# ---------------------------------------------------------------------------
# Point queries
# ---------------------------------------------------------------------------


def _assert_point_queries_match(registry, db, rng):
    for view in registry.views():
        rows = view.evaluate(db).rows
        probes = [view.visible(row) for row in rows]
        probes += [(params, sem[:-1] + ("absent",)) for params, sem in probes[:3]]
        # Parent and child of two different rows: usually no edge.
        probes += [(a[0], b[1]) for a, b in zip(probes[:4], probes[1:5])]
        for params, sem in probes:
            assert sorted(view.matching_rows(db, params, sem)) == sorted(
                narrowed_matching_rows(view, db, params, sem)
            )
        for alias, (relation, _) in view.key_layout.items():
            keys = [db.schema(relation).key_of(r) for r in db.rows(relation)]
            for key in rng.sample(keys, min(len(keys), 12)):
                assert sorted(view.rows_referencing(db, alias, key)) == sorted(
                    narrowed_rows_referencing(view, db, alias, key)
                )


@given(registrar_instances())
@settings(max_examples=30, deadline=None)
def test_point_queries_match_narrowed_spj(spec):
    atg, db = build_instance(spec)
    _assert_point_queries_match(build_registry(atg, db), db, random.Random(1))


def _shipped(name):
    if name == "synthetic":
        dataset = build_synthetic(SyntheticConfig(n_c=30))
        return dataset.atg, dataset.db
    if name == "registrar":
        return build_registrar()
    if name == "bom":
        return build_bom()
    return build_chain(depth=5, students=2)


def _registrar_child_reads_param() -> tuple[ATG, object]:
    """The registrar ATG where a prerequisite's ``cno`` is read off
    ``p.cno1``, the column the parent parameter is equated with: the
    edge's visible part projects that column twice."""
    atg, db = build_registrar()
    query = atg.rules[("prereq", "course")].query
    project = [("cno", Col("p", "cno1")), ("title", Col("c", "title"))]
    return _replace_rule(
        atg, "prereq", "course",
        SPJQuery(query.name, query.tables, project, query.where),
    ), db


def test_point_query_checks_every_argument_of_a_column():
    atg, db = _registrar_child_reads_param()
    view = build_registry(atg, db).view("prereq", "course")
    assert view.matching_rows(db, ("CS650",), ("CS650", "Databases")) == [
        ("CS650", "CS650", "Databases", "CS650", "CS320", "CS320")
    ]
    # The child's cno contradicts the parent parameter: no such edge.
    assert view.matching_rows(db, ("CS650",), ("CS320", "Databases")) == []
    assert view.matching_rows(db, ("CS320",), ("CS650", "Databases")) == []


@pytest.mark.parametrize(
    "name", ["synthetic", "bom", "chains", "ne", "child_reads_param"]
)
def test_point_queries_match_on_other_atgs(name):
    if name == "ne":
        atg, db = _registrar_with_ne()
        db.insert("prereq", ("CS240", "CS240"))
    elif name == "child_reads_param":
        atg, db = _registrar_child_reads_param()
    else:
        atg, db = _shipped(name)
    _assert_point_queries_match(build_registry(atg, db), db, random.Random(2))


# ---------------------------------------------------------------------------
# Plan introspection
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["synthetic", "registrar", "bom", "chains"])
def test_shipped_plans_never_scan(name):
    atg, db = _shipped(name)
    registry = build_registry(atg, db)
    for view in registry.views():
        for plan in view.plans.all():
            assert all(step.access == PROBE for step in plan.steps), plan
            assert SCAN not in repr(plan)


def test_plan_binding_order_and_explain():
    dataset = build_synthetic(SyntheticConfig(n_c=30))
    registry = build_registry(dataset.atg, dataset.db)
    plans = registry.view("sub", "cnode").plans
    # Seeded at F, the old table order would scan H first; the plan
    # reaches H through C's key instead.
    seed_f = plans.sweep[2]
    assert seed_f.binding_order == ("f", "c", "h")
    assert [step.probe_attrs for step in seed_f.steps] == [("c1",), ("h2",)]
    assert [step.takes_templates for step in seed_f.steps] == [False, False]
    assert plans.sweep[0].binding_order == ("h", "c", "f")
    assert all(step.takes_templates for step in plans.sweep[0].steps)
    assert plans.matching.binding_order == ("c", "h", "f")
    assert repr(seed_f) == (
        "<JoinPlan edge_sub_cnode[seed f]: f:seed -> c:C probe(c1) -> "
        "h:H probe(h2)>"
    )
    text = explain_views(registry)
    assert repr(seed_f) in text
    assert "edge_sub_cnode[referencing h]: h:H probe(h1, h2)" in text


def test_unindexed_probe_is_reported_as_scan():
    atg, db = build_registrar()
    query = atg.rules[("prereq", "course")].query
    where = And(
        Eq(Col("p", "cno1"), Param("cno")),
        Ne(Col("p", "cno2"), Col("c", "cno")),
    )
    atg = _replace_rule(
        atg, "prereq", "course",
        SPJQuery(query.name, query.tables, query.project, where),
    )
    plans = build_registry(atg, db).view("prereq", "course").plans
    # Only a non-equality links p and c: the second step must scan.
    assert [step.access for step in plans.sweep[0].steps] == [SCAN]
    assert "c:course scan+U" in repr(plans.sweep[0])
