"""The commit pipeline: plan → mutate → maintain → publish.

Every committed ΔV event reaches subscriptions and changefeed consumers
through the :class:`CommitPipeline`, in four explicit phases with
per-phase wall-clock accounting:

- **plan** — the foreground phases (validate → ΔR), still under the
  write lock so the plan cannot go stale before its commit;
- **mutate** — ΔR/ΔV application plus the Δ(M,L) repair; the emitted
  :class:`~repro.subscribe.delta.ViewEvent` stream is *collected* into a
  :class:`CommitRecord`;
- **maintain** — the record is sealed (one coalesced, generation-stamped
  event per at-rest generation) and the subscription registry runs its
  *batched* decision pass (:meth:`SubscriptionRegistry.apply_batched`)
  — still under the lock, so readers can never observe generation ``g``
  with stale subscriptions;
- **publish** — changefeed fan-out and consumer delivery run *after the
  write lock is released*, fenced by a ticket so concurrent writers
  publish in commit order.  Consumers therefore only ever see generation
  ``g`` after maintenance for ``g`` completed, and a slow consumer
  (``backpressure='block_writer'``) delays the *publisher*, not the
  whole critical section.

The service façade installs one pipeline per view as the updater's
event sink.  A direct updater call outside any write scope
(``rebuild()``, ``rebuild_structures_only()``, a bare
``apply_base_update``) publishes through the same seal → maintain →
stage → deliver tail, at once, on the calling thread.  Events are only
built while someone consumes them (:attr:`CommitPipeline.wants_events`).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

from repro.subscribe.delta import ViewEvent, coalesce

#: The four pipeline phases, in commit order.
PHASES = ("plan", "mutate", "maintain", "publish")


class CommitRecord:
    """One commit's sealed output: events, records and phase timings.

    While a pipeline scope is open on the writer thread, every event the
    updater emits is collected here.  :meth:`seal` folds them into a
    single generation-stamped event (mid-batch ``deferred`` events
    coalesce with their session's flush event), after which the record
    is immutable in spirit: ``event`` is what maintenance consumed and
    fan-out delivered.
    """

    __slots__ = ("generation", "events", "event", "timings", "_sealed")

    def __init__(self) -> None:
        self.generation = -1
        """Generation of the sealed event (-1 until sealed non-empty)."""
        self.events: list[ViewEvent] = []
        """Raw events collected while the scope was open (in emit order,
        ``deferred`` mid-batch events included)."""
        self.event: ViewEvent | None = None
        """The sealed, coalesced event (``None`` = nothing published)."""
        self.timings: dict[str, float] = {}
        """Per-phase wall-clock seconds (plus ``lock_wait`` and
        ``lock_hold``)."""
        self._sealed = False

    @property
    def sealed(self) -> bool:
        """Whether :meth:`seal` has run."""
        return self._sealed

    @property
    def nodes(self):
        """Node-interning records of the sealed event (wire side channel)."""
        return self.event.nodes if self.event is not None else ()

    @property
    def closure(self):
        """Closure pair-delta of the sealed event (``None`` = not captured)."""
        return self.event.closure if self.event is not None else None

    @contextmanager
    def phase(self, name: str):
        """Time a code block into ``timings[name]`` (accumulating)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings[name] = (
                self.timings.get(name, 0.0) + time.perf_counter() - start
            )

    def seal(self) -> ViewEvent | None:
        """Fold the collected events into one at-rest event.

        A single non-deferred event passes through untouched; a batch's
        deferred events coalesce with the flush event.  Returns the
        sealed event, or ``None`` when the scope emitted nothing
        (aborted plans, services nobody consumes events from).
        """
        if self._sealed:
            return self.event
        self._sealed = True
        if not self.events:
            return None
        if len(self.events) == 1 and not self.events[0].deferred:
            self.event = self.events[0]
        else:
            self.event = coalesce(self.events)
        self.generation = self.event.generation
        return self.event

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "sealed" if self.event is not None else "open"
        return (
            f"CommitRecord({state} gen={self.generation} "
            f"events={len(self.events)})"
        )


class CommitPipeline:
    """Owns phase ordering, generation fencing and per-phase timings.

    One instance per :class:`~repro.service.facade.ViewService`.  The
    façade routes every write through :meth:`scope`; the updater hands
    every emitted event to :meth:`collect`, which buffers it into the
    open scope's :class:`CommitRecord` (or publishes it at once when no
    scope is open).
    """

    def __init__(self, lock, updater, registry, hub, metrics=None):
        from repro.metrics import NULL_METRICS

        metrics = metrics if metrics is not None else NULL_METRICS
        self._lock = lock
        self.updater = updater
        self.registry = registry
        self.hub = hub
        self._m_commits = metrics.counter(
            "repro_commits_total",
            "Completed write scopes (aborted plans included).",
        )
        self._m_sealed = metrics.counter(
            "repro_commit_records_sealed_total",
            "Write scopes that sealed and published a non-empty event.",
        )
        self._m_commits.inc(0)  # materialize at 0 (empty families
        self._m_sealed.inc(0)   # are omitted from the exposition)
        self._m_phase = metrics.histogram(
            "repro_commit_phase_seconds",
            "Per-phase commit latency (plan/mutate/maintain/publish).",
        )
        self._m_lock_wait = metrics.histogram(
            "repro_lock_wait_seconds",
            "Time writers waited to acquire the write lock.",
        )
        self._m_lock_hold = metrics.histogram(
            "repro_lock_hold_seconds",
            "Time the write lock was held per commit (publish excluded).",
        )
        self._local = threading.local()
        self._turn_cond = threading.Condition()
        self._next_ticket = 0
        self._turn = 0
        self._stats_mutex = threading.Lock()
        self.commits = 0
        """Completed top-level scopes (aborted plans included) plus
        direct updater publications."""
        self.records_sealed = 0
        """Commits that sealed a non-empty event (i.e. published)."""
        self.lock_wait_seconds = 0.0
        """Cumulative time writers waited to acquire the write lock."""
        self.lock_hold_seconds = 0.0
        """Cumulative time the write lock was held (plan + mutate +
        maintain; publish runs off the lock)."""
        self.phase_seconds: dict[str, float] = dict.fromkeys(PHASES, 0.0)
        """Cumulative per-phase wall-clock seconds."""
        self.last: dict = {}
        """The most recent scope's timings (debug/benchmark aid)."""

    # -- the sink protocol (called by the updater) ---------------------------------

    @property
    def wants_events(self) -> bool:
        """Whether committed mutations should build ΔV events: true iff
        a subscription is live or the changefeed hub is attached (a WAL
        attaches it at construction).  Otherwise commits skip event
        construction entirely."""
        return len(self.registry) > 0 or self.hub.attached

    def collect(self, event: ViewEvent) -> None:
        """Take one emitted event from the updater.

        Inside an open scope on the calling thread the event is buffered
        into the scope's record; maintenance and fan-out run from the
        sealed record when the scope closes.  Outside any scope (a direct
        updater call: ``rebuild()``, ``rebuild_structures_only()``, a
        bare ``apply_base_update``) the event is published at once, on
        the calling thread, through the same tail as :meth:`scope` —
        except a direct ``updater.batch()``'s mid-batch ``deferred``
        events, which wait in the record for the session's flush event
        so the batch still publishes as one coalesced event.
        """
        local = self._local
        record = getattr(local, "record", None)
        if record is None:
            record = local.record = CommitRecord()
        record.events.append(event)
        if getattr(local, "depth", 0) or event.deferred:
            return
        local.record = None
        self._finish(record, release=None)

    # -- the write scope -----------------------------------------------------------

    @contextmanager
    def scope(self):
        """Open a staged write section; yields the :class:`CommitRecord`.

        Acquire the write lock, run the body (plan + mutate), then —
        still under the lock — seal the record, run the registry's
        batched maintenance and stage changefeed fan-out; release the
        lock and deliver to consumers in ticket (= commit) order.  The
        seal/maintain/publish tail runs even when the body raises
        (a strict-mode batch failure has already flushed its session and
        emitted the flush event before the exception propagates).

        Reentrant per thread: a nested scope (``service.apply`` inside
        ``service.batch()``) joins the outer record.
        """
        local = self._local
        if getattr(local, "depth", 0):
            local.depth += 1
            try:
                yield local.record
            finally:
                local.depth -= 1
            return
        record = CommitRecord()
        wait_start = time.perf_counter()
        self._lock.acquire_write()
        acquired = time.perf_counter()
        record.timings["lock_wait"] = acquired - wait_start

        def release() -> None:
            record.timings["lock_hold"] = time.perf_counter() - acquired
            self._lock.release_write()

        local.depth, local.record = 1, record
        try:
            yield record
        finally:
            local.depth, local.record = 0, None
            self._finish(record, release)

    def _finish(self, record: CommitRecord, release) -> None:
        """The commit tail: seal → maintain → stage, ``release``, deliver.

        Sealing, the registry's batched maintenance and the hub's
        staging run first (under the write lock when called from
        :meth:`scope`); then ``release`` (the lock release, or ``None``
        for a direct updater call) runs, and consumers are delivered in
        ticket (= commit) order.  The whole tail runs under the
        updater's observer guard, so neither maintenance nor a consumer
        callback can start a nested commit.
        """
        staged = None
        ticket: int | None = None
        try:
            try:
                event = record.seal()
                if event is not None:
                    with self.updater._observer_section():
                        with record.phase("maintain"):
                            self.registry.apply_batched(event)
                        staged = self.hub.stage(event)
                    if staged is not None and staged.consumers:
                        ticket = self._take_ticket()
            finally:
                if release is not None:
                    release()
            if ticket is not None:
                with record.phase("publish"):
                    self._publish(ticket, staged)
        finally:
            self._account(record)

    # -- the publish phase (off the lock) --------------------------------------------

    def _take_ticket(self) -> int:
        with self._turn_cond:
            ticket = self._next_ticket
            self._next_ticket += 1
            return ticket

    def _publish(self, ticket: int, staged) -> None:
        """Deliver in commit order, outside the writer's critical section.

        The ticket fence keeps concurrent writers' deliveries ordered;
        the updater's observer guard stays raised on this thread so a
        consumer callback writing back into the service still raises
        :class:`~repro.errors.PlanError` (the lock is free by now — the
        guard, not the lock, enforces the no-reentrancy contract).
        """
        with self._turn_cond:
            self._turn_cond.wait_for(lambda: self._turn == ticket)
        try:
            with self.updater._observer_section():
                self.hub.deliver(staged)
        finally:
            with self._turn_cond:
                self._turn += 1
                self._turn_cond.notify_all()

    # -- accounting -------------------------------------------------------------------

    def _account(self, record: CommitRecord) -> None:
        timings = record.timings
        hold = timings.get("lock_hold", 0.0)
        timings.setdefault(
            "mutate",
            max(
                0.0,
                hold
                - timings.get("plan", 0.0)
                - timings.get("maintain", 0.0),
            ),
        )
        with self._stats_mutex:
            self.commits += 1
            if record.event is not None:
                self.records_sealed += 1
            self.lock_wait_seconds += timings.get("lock_wait", 0.0)
            self.lock_hold_seconds += hold
            for name in PHASES:
                self.phase_seconds[name] += timings.get(name, 0.0)
            self.last = {"generation": record.generation, **timings}
        self._m_commits.inc()
        if record.event is not None:
            self._m_sealed.inc()
        self._m_lock_wait.observe(timings.get("lock_wait", 0.0))
        self._m_lock_hold.observe(hold)
        for name in PHASES:
            if name in timings:
                self._m_phase.labels(phase=name).observe(timings[name])

    def stats(self) -> dict:
        """JSON-safe pipeline counters (for ``service.stats()``)."""
        with self._stats_mutex:
            return {
                "commits": self.commits,
                "records_sealed": self.records_sealed,
                "lock_wait_seconds": self.lock_wait_seconds,
                "lock_hold_seconds": self.lock_hold_seconds,
                "phase_seconds": dict(self.phase_seconds),
                "last": dict(self.last),
            }
