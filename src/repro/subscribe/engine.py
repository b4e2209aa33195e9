"""Incrementally maintained XPath subscriptions over one published view.

``service.subscribe(path)`` evaluates ``path`` once, eagerly, and from
then on the :class:`SubscriptionRegistry` keeps the result current by
consuming the structured ΔV events every committed operation emits
(:mod:`repro.subscribe.delta`).  The commit pipeline
(:class:`~repro.service.pipeline.CommitPipeline`) hands it one sealed
event per commit — batches already coalesced — in its *maintain* phase
(:meth:`SubscriptionRegistry.apply_batched`).  Per event and per
subscription the registry picks the cheapest sound action:

- **skip** — no event edge intersects any step's dependency map
  (:mod:`repro.subscribe.deps`): the cached result is provably current,
  only the generation tag advances;
- **suffix re-evaluation** — the earliest affected step is ``k > 0``:
  contexts ``C_0 .. C_k`` are intact, so only ``steps[k:]`` re-runs
  from the cached ``C_k`` (:meth:`DagXPathEvaluator.evaluate_from`);
- **full re-evaluation** — the event is coarse (store rebuilds, or the
  cost-based fallback coarsened an oversized edge list — see
  :data:`DEFAULT_COARSE_THRESHOLD`), step 0 is affected, or no contexts
  are cached.  Base-update propagation emits *fine-grained* events
  (typed :class:`~repro.atg.incremental.PropagationReport` records), so
  the same pruning applies to the reverse pipeline.

Alongside the full result set, each maintenance action derives the
per-commit **result delta** from the old/new tuples the registry
already holds: :meth:`Subscription.delta` returns ``(added, removed)``
node ids at near-zero cost.

Every subscription is generation-tagged with the updater's version
counter.  :meth:`Subscription.result` compares tags before answering
and falls back to a full re-evaluation on any mismatch — a missed or
not-yet-published event (e.g. reading mid-batch) degrades to
correct-but-slower, never to stale data.  Maintenance runs inside the
writer's critical section (the service write lock); ``result()`` takes
the read side.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext

from repro.subscribe.delta import ViewEvent
from repro.subscribe.deps import (
    QueryProfile,
    first_affected_step,
    profile_query,
)
from repro.xpath.ast import DescendantStep, XPath
from repro.xpath.parser import parse_xpath

_STAT_KEYS = (
    "skips",
    "suffix_refreshes",
    "full_refreshes",
    "fallback_refreshes",
    "coarse_fallbacks",
    "closure_patches",
)

#: Above this many edges in one event, the batched decision pass
#: (probing every edge against the pattern index and scanning it for
#: every candidate) costs more than simply re-evaluating, so the
#: registry degrades the event to coarse.  The default is calibrated by
#: ``benchmarks/test_coarse_fallback.py`` (measured crossover ≈ 4096
#: non-matching edges at 16 standing queries, recorded in
#: ``BENCH_index.json``; the default sits below it because real events
#: match patterns and re-evaluate some queries either way).  Each
#: registry starts from it (``SubscriptionRegistry.coarse_threshold``).
DEFAULT_COARSE_THRESHOLD = 2048


class Subscription:
    """One registered XPath with an incrementally maintained result."""

    def __init__(
        self,
        sid: int,
        text: str,
        path: XPath,
        profile: QueryProfile,
        registry: "SubscriptionRegistry",
    ):
        self.id = sid
        self.path = text
        self.query = path
        self.profile = profile
        self.active = True
        self._stats: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self._registry = registry
        self._mutex = threading.Lock()
        self._generation = -1
        self._ledger_mark = 0
        """Registry skip-ledger position this subscription has folded
        in; events past the mark were lazy skips (see
        :meth:`SubscriptionRegistry.apply_batched`)."""
        self._watched: frozenset | None = None
        """Nodes whose outgoing-edge changes could affect this
        subscription (the union of the cached contexts its in-context
        patterns are sharpened against), or ``None`` when membership
        sharpening cannot cover every pattern (``//``/wildcard
        dependencies, deep filter chains, no cached contexts) and the
        type-level candidate pass must always consider it."""
        self._nodes: tuple[int, ...] = ()
        self._delta: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
        self._contexts: list[list[int]] | None = None
        self._context_sets: list[frozenset] | None = None
        self._closure_consumer = False
        """True while this (leading-``//``) subscription holds a slot in
        ``updater.closure_consumers``."""

    @property
    def stats(self) -> dict[str, int]:
        """Maintenance-action counters (one key per :data:`_STAT_KEYS`).

        Reading folds in any skips the batched maintenance pass
        accounted lazily, so the counters are always exact at the
        caller's read.
        """
        self._registry.sync(self)
        return self._stats

    @property
    def generation(self) -> int:
        """The updater generation this subscription's cache reflects."""
        self._registry.sync(self)
        return self._generation

    def result(self) -> tuple[int, ...]:
        """The current result set as a sorted tuple of view node ids.

        Equal — after every committed operation — to
        ``tuple(sorted(service.xpath(self.path).targets))``; stale
        generations trigger an inline full re-evaluation first.
        """
        return self._registry.result_of(self)

    def delta(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``(added, removed)`` node ids of the most recent commit.

        Derived in the registry from the old/new result tuples it
        already holds, so the watcher pattern — "tell me what changed,
        not the whole set" — costs nothing extra.  Both tuples are
        sorted; a commit that did not move this result yields
        ``((), ())``, as does a freshly registered subscription.  Reads
        carry the same freshness guarantee as :meth:`result`: a stale
        generation triggers an inline refresh first, and the delta then
        spans everything since the last refreshed generation.
        """
        return self._registry.delta_of(self)

    def close(self) -> None:
        """Stop maintaining this subscription (idempotent)."""
        self._registry.unsubscribe(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Subscription(#{self.id} {self.path!r} gen={self._generation} "
            f"|result|={len(self._nodes)})"
        )


class _PatternIndex:
    """Inverted index over subscription edge patterns.

    Maps a typed event edge to the subscriptions whose
    :class:`~repro.subscribe.deps.QueryProfile` could possibly be
    affected by it, so one event probes a handful of hash buckets
    instead of scanning every pattern of every subscription
    (:meth:`SubscriptionRegistry.apply_batched`).  The candidate set is
    a strict superset of the subscriptions whose
    :func:`~repro.subscribe.deps.first_affected_step` is non-``None``:
    it reproduces the type/value tests of
    :meth:`~repro.subscribe.deps.EdgePattern.matches` exactly and
    ignores only the (purely narrowing) node-membership sharpening, so
    skipping a non-candidate is always sound.

    Buckets are keyed by ``(parent label, child label)`` with ``None``
    components for wildcards; a subscription with a fully wildcard
    pattern anywhere (``*``/``//`` steps, ``//`` inside a filter) is an
    always-candidate.  Value-constrained patterns index per value; an
    event edge with an *unknown* child value conservatively matches all
    of them (same rule as ``EdgePattern.matches``).
    """

    def __init__(self):
        self._always: set[Subscription] = set()
        self._buckets: dict[tuple, dict] = {}
        self._entries: dict[Subscription, list[tuple]] = {}

    def add(self, sub: Subscription) -> None:
        """Index every per-step pattern of ``sub``."""
        entries: list[tuple] = []
        always = False
        for deps in sub.profile.per_step:
            for pat in deps:
                if pat.parent is None and pat.child is None:
                    always = True
                elif pat.values is None:
                    entries.append(((pat.parent, pat.child), None))
                else:
                    entries.extend(
                        ((pat.parent, pat.child), value)
                        for value in pat.values
                    )
        if always:
            # Any fine event can touch it; typed entries are redundant.
            self._always.add(sub)
            self._entries[sub] = []
            return
        self._entries[sub] = entries
        for key, value in entries:
            bucket = self._buckets.setdefault(
                key, {"any": set(), "valued": set(), "by_value": {}}
            )
            if value is None:
                bucket["any"].add(sub)
            else:
                bucket["valued"].add(sub)
                bucket["by_value"].setdefault(value, set()).add(sub)

    def discard(self, sub: Subscription) -> None:
        """Remove ``sub``'s entries (idempotent)."""
        entries = self._entries.pop(sub, None)
        self._always.discard(sub)
        if not entries:
            return
        for key, value in entries:
            bucket = self._buckets.get(key)
            if bucket is None:
                continue
            if value is None:
                bucket["any"].discard(sub)
            else:
                bucket["valued"].discard(sub)
                values = bucket["by_value"].get(value)
                if values is not None:
                    values.discard(sub)
                    if not values:
                        del bucket["by_value"][value]
            if not (bucket["any"] or bucket["valued"]):
                del self._buckets[key]

    def candidates(self, event: ViewEvent) -> set[Subscription]:
        """Subscriptions that may be affected by ``event``'s edges."""
        found: set[Subscription] = set(self._always)
        buckets = self._buckets
        for rec in event.edges:
            for key in (
                (rec.parent_type, rec.child_type),
                (rec.parent_type, None),
                (None, rec.child_type),
            ):
                bucket = buckets.get(key)
                if bucket is None:
                    continue
                found |= bucket["any"]
                if rec.child_value is None:
                    found |= bucket["valued"]
                else:
                    found |= bucket["by_value"].get(rec.child_value, set())
        return found


class SubscriptionRegistry:
    """All subscriptions of one view; consumes the commit event stream."""

    def __init__(self, updater, lock=None, metrics=None):
        from repro.metrics import NULL_METRICS

        metrics = metrics if metrics is not None else NULL_METRICS
        self.updater = updater
        self._m_events = metrics.counter(
            "repro_subscription_events_total",
            "Commit events processed by the subscription registry "
            "(coalesced batches count once).",
        )
        self._m_events.inc(0)  # materialize at 0 in the exposition
        self._lock = lock
        self._subs: list[Subscription] = []
        self._patterns = _PatternIndex()
        self._members = threading.Lock()
        self._ids = itertools.count(1)
        self._closed_totals: dict[str, int] = dict.fromkeys(_STAT_KEYS, 0)
        self.coarse_threshold = DEFAULT_COARSE_THRESHOLD
        """Cost-based fallback: events carrying more edges than this are
        handled as coarse (one full re-evaluation per subscription)
        instead of being scanned edge-by-edge against every pattern."""
        self.events_processed = 0
        self.publish_seconds = 0.0
        self._ledger_events = 0
        """Events accounted through :meth:`apply_batched`.  A
        subscription whose ``_ledger_mark`` trails this count was a
        non-candidate for every event in between — each one a *lazy
        skip*, folded into its visible state on the next read (or the
        next time it is a candidate)."""
        self._ledger_gen = -1
        """Generation of the last batched event (what a lazy skip
        fast-forwards ``_generation`` to)."""
        self._watchers: dict[int, set[Subscription]] = {}
        """Node-level inverted watch index: node id → the
        fully-sharpenable subscriptions with that node in a watched
        context (see :attr:`Subscription._watched`).  Guarded by
        ``self._members``; rebuilt per subscription whenever a
        maintenance action refreshes its contexts."""

    # -- registration ------------------------------------------------------------

    def subscribe(self, path: str | XPath) -> Subscription:
        """Register ``path`` and evaluate it eagerly.

        Callers must hold the writer side of the service lock (the
        :class:`~repro.service.facade.ViewService` façade does) so
        registration is serialized against commits.
        """
        parsed = parse_xpath(path) if isinstance(path, str) else path
        store = self.updater.store
        root_label = (
            store.type_of(store.root_id)
            if store.root_id is not None
            else None
        )
        sub = Subscription(
            next(self._ids), str(parsed) or ".", parsed,
            profile_query(parsed, root_label), self,
        )
        if parsed.steps and isinstance(parsed.steps[0], DescendantStep):
            # A leading-``//`` query can be maintained from closure
            # pair-deltas; tell the updater someone wants them captured
            # (``capture_closure_deltas='auto'`` keys off this count).
            sub._closure_consumer = True
            self.updater.closure_consumers += 1
        with sub._mutex:
            self._refresh_full(sub)
            sub._generation = self.updater._version
            # Events before registration are not this sub's skips.
            sub._ledger_mark = self._ledger_events
            self._reindex_watch(sub)
        with self._members:
            # From here on commits build events for this subscription
            # (the pipeline's ``wants_events`` reads ``len(self)``).
            self._subs.append(sub)
            self._patterns.add(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Drop ``sub`` from maintenance (idempotent; folds its stats)."""
        # Fold pending lazy skips before touching membership state —
        # and outside ``_members``, which is only ever taken *after* a
        # subscription mutex, never around one.
        with sub._mutex:
            self._sync_locked(sub)
            watched, sub._watched = sub._watched, None
        with self._members:
            sub.active = False
            if sub._closure_consumer:
                sub._closure_consumer = False
                self.updater.closure_consumers -= 1
            self._patterns.discard(sub)
            if watched:
                self._drop_watchers(sub, watched)
            if sub in self._subs:
                self._subs.remove(sub)
                # Keep the registry-level counters monotonic: fold the
                # closed subscription's tallies into the totals.
                for key in _STAT_KEYS:
                    self._closed_totals[key] += sub._stats[key]

    def __len__(self) -> int:
        return len(self._subs)

    def __iter__(self):
        return iter(list(self._subs))

    # -- the maintenance path (writer's critical section) --------------------------

    def apply_batched(self, event: ViewEvent) -> None:
        """The commit pipeline's maintain phase: one batched decision pass.

        Every subscription ends at the event's generation with the
        result, delta and stats a per-subscription scan would give, but
        the per-subscription decision is batched: the
        :class:`_PatternIndex` maps the event's edges to the candidate
        subscriptions in one probe per typed edge, and
        the non-candidates — however many — are accounted with **one**
        ledger bump (a *lazy skip*): their ``skips`` counter, empty
        delta and generation tag materialize on the next read via
        :meth:`sync`.  Candidates run the ordinary per-subscription
        action (:meth:`_apply_event` — which may still conclude "skip"
        after membership sharpening).  Coarse events (and the
        cost-based fallback) touch every subscription, exactly as
        before.  Cost per event: O(edges + candidates), independent of
        the total subscription count.

        The caller (:class:`~repro.service.pipeline.CommitPipeline`)
        holds the write lock (or runs a direct updater call) and passes
        the *sealed* event — batches arrive already coalesced.
        """
        with self._members:
            subs = list(self._subs)
        if not subs:
            return
        start = time.perf_counter()
        if not event.coarse and len(event.edges) > self.coarse_threshold:
            # Cost-based fallback: scanning a huge edge list (bulk
            # batches, wide base propagations) costs more than one
            # re-evaluation per subscription.
            event = ViewEvent(
                generation=event.generation,
                coarse=True,
                reason=f"cost_fallback({event.reason})",
            )
            for sub in subs:
                sub._stats["coarse_fallbacks"] += 1
        if event.coarse:
            touched = subs
        else:
            with self._members:
                candidates = self._patterns.candidates(event)
                if candidates:
                    # Node-level sharpening on top of the type/value
                    # buckets: a fully-sharpenable subscription is only
                    # a candidate when some edge hangs off a node it
                    # actually watches (exactly the membership test
                    # first_affected_step would apply per edge).
                    watchers = self._watchers
                    hit: set[Subscription] = set()
                    for rec in event.edges:
                        bucket = watchers.get(rec.parent)
                        if bucket:
                            hit |= bucket
                    candidates = {
                        sub for sub in candidates
                        if sub._watched is None or sub in hit
                    }
            touched = [sub for sub in subs if sub in candidates]
        for sub in touched:
            with sub._mutex:
                self._sync_locked(sub)
                if self._apply_event(sub, event):
                    self._reindex_watch(sub)
                # Current through this event; the ledger bump below
                # must not read as a pending skip.
                sub._ledger_mark = self._ledger_events + 1
        # Every untouched subscription skipped this event; account all
        # of them in O(1) — their counters/generation catch up on read.
        self._ledger_events += 1
        self._ledger_gen = event.generation
        self.publish_seconds += time.perf_counter() - start
        self.events_processed += 1
        self._m_events.inc()

    # -- the lazy skip ledger -------------------------------------------------------

    def sync(self, sub: Subscription) -> None:
        """Fold ``sub``'s pending lazy skips into its visible state."""
        if sub._ledger_mark == self._ledger_events:
            return
        with sub._mutex:
            self._sync_locked(sub)

    def _sync_locked(self, sub: Subscription) -> None:
        """:meth:`sync` body; callers hold ``sub._mutex``."""
        pending = self._ledger_events - sub._ledger_mark
        if pending > 0:
            sub._stats["skips"] += pending
            sub._delta = ((), ())
            sub._generation = self._ledger_gen
        sub._ledger_mark = self._ledger_events

    # -- the node-level watch index ---------------------------------------------------

    def _watch_nodes(self, sub: Subscription) -> frozenset | None:
        """Nodes ``sub``'s candidacy can be sharpened to, or ``None``.

        Mirrors :func:`~repro.subscribe.deps.first_affected_step`'s
        membership test exactly: an ``in_context`` pattern at step ``k``
        only fires through an edge whose parent is in the cached
        ``context_sets[k]``.  When *every* pattern of every step is
        sharpened that way, the union of those context sets is the
        complete set of nodes whose outgoing edges can matter.  Any
        unsharpened pattern (``in_region`` — the region can be huge,
        ``in_context=False`` — deep filter-chain edges, a pattern index
        beyond the cached contexts, or no cache at all) returns
        ``None``: the subscription must stay a candidate whenever its
        type/value buckets match.
        """
        context_sets = sub._context_sets
        if context_sets is None:
            return None
        watched: set = set()
        for index, deps in enumerate(sub.profile.per_step):
            for pattern in deps:
                if not pattern.in_context or pattern.in_region:
                    return None
                if index >= len(context_sets):
                    return None
                watched |= context_sets[index]
        return frozenset(watched)

    def _reindex_watch(self, sub: Subscription) -> None:
        """Re-derive ``sub``'s watch set after a context refresh.

        Callers hold ``sub._mutex``; the shared index itself is guarded
        by ``_members`` (taken inside the mutex — the registry-wide
        lock order).
        """
        new = self._watch_nodes(sub)
        old = sub._watched
        if new == old:
            return
        with self._members:
            if old:
                self._drop_watchers(sub, old)
            if new:
                watchers = self._watchers
                for node in new:
                    bucket = watchers.get(node)
                    if bucket is None:
                        watchers[node] = {sub}
                    else:
                        bucket.add(sub)
        sub._watched = new

    def _drop_watchers(self, sub: Subscription, watched: frozenset) -> None:
        """Remove ``sub``'s entries; callers hold ``_members``."""
        watchers = self._watchers
        for node in watched:
            bucket = watchers.get(node)
            if bucket is not None:
                bucket.discard(sub)
                if not bucket:
                    del watchers[node]

    def _apply_event(self, sub: Subscription, event: ViewEvent) -> bool:
        """One subscription's maintenance action; ``True`` when the
        action (re)built cached contexts — the caller must then refresh
        the subscription's watch-index entries."""
        old = sub._nodes
        k = first_affected_step(sub.profile, event, sub._context_sets)
        if k is None:
            sub._stats["skips"] += 1
            sub._delta = ((), ())
            sub._generation = event.generation
            return False
        action = self._closure_patch(sub, event) if k == 0 else None
        if action is not None:
            sub._stats[action] += 1
        elif k == 0 or sub._contexts is None or len(sub._contexts) <= k:
            # (coarse events arrive as k == 0.)
            self._refresh_full(sub)
            sub._stats["full_refreshes"] += 1
        else:
            self._refresh_suffix(sub, k)
            sub._stats["suffix_refreshes"] += 1
        sub._delta = _diff(old, sub._nodes)
        sub._generation = event.generation
        return True

    def _closure_patch(self, sub: Subscription, event: ViewEvent) -> str | None:
        """Maintain a leading-``//`` subscription from the closure delta.

        A structural event always intersects the ``//`` step's region
        (its context is *every* node), so without help these queries
        re-evaluate fully on each commit — including the descendant
        closure walk the ``//`` step pays.  When the event carries the
        repair's exact closure pair-delta (``event.closure``, see
        ``capture_closure_deltas``), the region change is knowable
        instead: nodes whose ``(root, n)`` pair was added *entered* the
        view (and the region), nodes whose pair was removed *left* (they
        were garbage-collected — a live node is always below the root).
        The patch then

        - drops the departed nodes from every cached context,
        - re-evaluates the remaining steps **only from the entered
          nodes** and merges the partial result in (``closure_patches``),
        - or, when the event also touches a step beyond the ``//``
          (``first_affected_step(start=1)``), falls back to a suffix
          re-evaluation from the deepest intact context — still never
          re-walking the closure (``suffix_refreshes``).

        Returns the stat key of the action taken, or ``None`` when the
        event has no closure delta (or the query does not qualify) and
        the ordinary full re-evaluation must run.
        """
        if event.closure is None:
            return None
        steps = sub.query.steps
        if not steps or not isinstance(steps[0], DescendantStep):
            return None
        contexts, context_sets = sub._contexts, sub._context_sets
        if contexts is None or context_sets is None or len(contexts) < 2:
            return None
        root = self.updater.store.root_id
        if root is None:
            return None
        added_pairs, removed_pairs = event.closure
        entered = {d for a, d in added_pairs if a == root}
        left = {d for a, d in removed_pairs if a == root}
        k2 = first_affected_step(
            sub.profile, event, context_sets, start=1
        )
        if k2 is not None and entered:
            # New chains and damage beyond the ``//`` at once: merging
            # both soundly equals a full pass, so just run one.
            return None
        if left:
            for i in range(1, len(contexts)):
                if left & context_sets[i]:
                    contexts[i] = [n for n in contexts[i] if n not in left]
                    context_sets[i] = frozenset(contexts[i])
            sub._nodes = tuple(n for n in sub._nodes if n not in left)
        if entered:
            contexts[1] = [*contexts[1], *sorted(entered)]
            context_sets[1] = frozenset(contexts[1])
        if k2 is not None:
            self._refresh_suffix(sub, k2)
            return "suffix_refreshes"
        if entered:
            suffix = XPath(steps[1:])
            result = self.updater.evaluator().evaluate_from(
                suffix, start=sorted(entered)
            )
            for j, partial in enumerate(result.contexts[1:], start=2):
                fresh = [n for n in partial if n not in context_sets[j]]
                if fresh:
                    contexts[j] = [*contexts[j], *fresh]
                    context_sets[j] = frozenset(contexts[j])
            if result.targets:
                sub._nodes = tuple(
                    sorted(set(sub._nodes) | set(result.targets))
                )
        return "closure_patches"

    def _refresh_full(self, sub: Subscription) -> None:
        result = self.updater.evaluator().evaluate_from(sub.query)
        sub._contexts = [list(c) for c in result.contexts]
        sub._context_sets = [frozenset(c) for c in sub._contexts]
        sub._nodes = tuple(sorted(result.targets))

    def _refresh_suffix(self, sub: Subscription, k: int) -> None:
        assert sub._contexts is not None and len(sub._contexts) > k
        suffix = XPath(sub.query.steps[k:])
        result = self.updater.evaluator().evaluate_from(
            suffix, start=list(sub._contexts[k])
        )
        sub._contexts = [
            *sub._contexts[: k + 1],
            *[list(c) for c in result.contexts[1:]],
        ]
        assert sub._context_sets is not None
        sub._context_sets = [
            *sub._context_sets[: k + 1],
            *[frozenset(c) for c in result.contexts[1:]],
        ]
        sub._nodes = tuple(sorted(result.targets))

    # -- the read path --------------------------------------------------------------

    def _read(self):
        return self._lock.read() if self._lock is not None else nullcontext()

    def _refresh_if_stale(self, sub: Subscription) -> None:
        """Generation-tagged fallback: a missed/deferred event (mid-batch
        reads, an updater without a service) costs a full re-evaluation,
        never staleness.  The delta then spans everything since the last
        generation this subscription reflected."""
        if sub._generation != self.updater._version:
            old = sub._nodes
            self._refresh_full(sub)
            sub._delta = _diff(old, sub._nodes)
            sub._generation = self.updater._version
            sub._stats["fallback_refreshes"] += 1
            self._reindex_watch(sub)

    def result_of(self, sub: Subscription) -> tuple[int, ...]:
        """Current result of ``sub`` (see :meth:`Subscription.result`)."""
        with self._read():
            with sub._mutex:
                self._sync_locked(sub)
                self._refresh_if_stale(sub)
                return sub._nodes

    def delta_of(
        self, sub: Subscription
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Last-commit ``(added, removed)`` (see :meth:`Subscription.delta`)."""
        with self._read():
            with sub._mutex:
                self._sync_locked(sub)
                self._refresh_if_stale(sub)
                return sub._delta

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe registry counters (monotonic across closes)."""
        totals = dict(self._closed_totals)
        for sub in list(self._subs):
            self.sync(sub)  # fold pending lazy skips first
            for key in _STAT_KEYS:
                totals[key] += sub._stats[key]
        return {
            "subscriptions": len(self._subs),
            "events_processed": self.events_processed,
            "publish_seconds": self.publish_seconds,
            "coarse_threshold": self.coarse_threshold,
            **totals,
        }


def _diff(
    old: tuple[int, ...], new: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(added, removed)`` between two sorted result tuples."""
    if old == new:
        return ((), ())
    old_set, new_set = set(old), set(new)
    return (
        tuple(sorted(new_set - old_set)),
        tuple(sorted(old_set - new_set)),
    )
