"""Human-readable explanations of update processing.

``explain_outcome`` renders an :class:`~repro.core.updater.UpdateOutcome`
— the phases, the selected nodes, the view and base deltas, side-effect
witnesses, SAT statistics — the way a DBA would want to read an update
plan.  ``explain_views`` documents the edge-view definitions of an ATG
(their SQL, parameters, key layout, and compiled delta-join plans).
"""

from __future__ import annotations

from repro.core.updater import UpdateOutcome, XMLViewUpdater
from repro.relational.sqlgen import select_sql
from repro.views.registry import EdgeViewRegistry
from repro.views.store import ViewStore


def explain_outcome(
    outcome: UpdateOutcome, store: ViewStore | None = None
) -> str:
    """Render an update outcome as a multi-line report."""
    lines: list[str] = []
    status = "ACCEPTED" if outcome.accepted else "REJECTED"
    lines.append(f"{outcome.kind.upper()} — {status}")
    if outcome.reason:
        lines.append(f"  reason: {outcome.reason}")
    if outcome.targets:
        rendered = [_node(store, n) for n in outcome.targets[:8]]
        suffix = " ..." if len(outcome.targets) > 8 else ""
        lines.append(
            f"  r[[p]]: {len(outcome.targets)} node(s): "
            + ", ".join(rendered)
            + suffix
        )
    if outcome.side_effects:
        rendered = [_node(store, n) for n in sorted(outcome.side_effects)[:8]]
        lines.append(
            f"  side effects via {len(outcome.side_effects)} node(s): "
            + ", ".join(rendered)
        )
    if outcome.delta_v is not None:
        lines.append(f"  ΔV: {len(outcome.delta_v)} edge operation(s)")
        for op in outcome.delta_v.ops[:10]:
            lines.append(
                f"    {op.kind:6s} {op.relation}({op.parent} -> {op.child})"
            )
        if len(outcome.delta_v) > 10:
            lines.append(f"    ... {len(outcome.delta_v) - 10} more")
    if outcome.delta_r is not None:
        lines.append(f"  ΔR: {len(outcome.delta_r)} base operation(s)")
        for op in outcome.delta_r.ops[:10]:
            lines.append(f"    {op.kind:6s} {op.relation}{op.row}")
        if len(outcome.delta_r) > 10:
            lines.append(f"    ... {len(outcome.delta_r) - 10} more")
    if outcome.stats:
        stats = ", ".join(f"{k}={v}" for k, v in sorted(outcome.stats.items()))
        lines.append(f"  stats: {stats}")
    if outcome.timings:
        total = outcome.total_time
        lines.append(f"  timings ({total * 1e3:.2f} ms total):")
        for phase in (
            "validate", "xpath", "translate_v", "translate_r", "apply",
            "maintain",
        ):
            if phase in outcome.timings:
                seconds = outcome.timings[phase]
                share = 100.0 * seconds / total if total else 0.0
                lines.append(
                    f"    {phase:12s} {seconds * 1e3:8.3f} ms ({share:4.1f}%)"
                )
    return "\n".join(lines)


def _node(store: ViewStore | None, node: int) -> str:
    if store is None or not store.has_node(node):
        return f"#{node}"
    return f"{store.type_of(node)}{store.sem_of(node)}"


def explain_views(registry: EdgeViewRegistry) -> str:
    """Render every edge-view definition of an ATG and its plans."""
    lines: list[str] = []
    for view in registry.views():
        lines.append(f"{view.name}  (parent params: {view.param_names})")
        lines.append(f"  child columns: {view.child_columns}")
        for alias, (relation, slots) in sorted(view.key_layout.items()):
            attrs = [attr for _, attr in slots]
            lines.append(f"  source {alias} = {relation}, key {tuple(attrs)}")
        lines.append(f"  SQL: {select_sql(view.query)}")
        lines.append(view.plans.explain())
    return "\n".join(lines)


def explain_state(updater: XMLViewUpdater) -> str:
    """One-paragraph summary of an updater's current state."""
    store = updater.store
    return (
        f"view '{updater.atg.root}': {store.num_nodes} nodes, "
        f"{store.num_edges} edges (sharing {store.sharing_rate():.1%}); "
        f"|M| = {len(updater.reach)} pairs; |L| = {len(updater.topo)}; "
        f"base: {updater.db.size()} rows in "
        f"{len(updater.db.table_names())} relations"
    )
