"""The publisher side of the changefeed: one hub per published view.

The :class:`ChangefeedHub` turns the commit pipeline's sealed events
(:class:`~repro.service.pipeline.CommitPipeline`) into the stable
public feed:

- it attaches **once**, on the first :meth:`ChangefeedHub.open` (or at
  construction of a durable service), and stays attached for the life
  of the service — retention must be continuous for replay to be
  trustworthy; while attached, every commit builds and stages its event;
- it receives one sealed event per committed generation that was
  observable at rest — the pipeline has already coalesced a batch's
  mid-batch ``deferred`` events with the session's flush event;
- every published event lands in the generation-indexed
  :class:`~repro.changefeed.buffer.ReplayBuffer` in :meth:`stage`,
  under the writer's critical section and *before* fan-out, so a
  consumer attached with ``since=`` can never miss an event between its
  replay and its first live delivery.

Generations are the updater's version counter: strictly increasing,
not necessarily dense (failed commits bump without publishing; batches
publish once).  ``open(since=g)`` means "I have processed every event
with generation ≤ g" — the hub replays the retained events after ``g``
and raises :class:`~repro.errors.ReplayGapError` when eviction has made
that impossible.
"""

from __future__ import annotations

import threading

from repro.changefeed.buffer import ReplayBuffer
from repro.changefeed.consumer import ChangefeedConsumer
from repro.errors import ChangefeedError, ReplayGapError
from repro.subscribe.delta import ViewEvent

#: Default number of published events retained for replay.
DEFAULT_RETENTION = 256


class _Staged:
    """A staged publication: the sealed event + its fan-out snapshot."""

    __slots__ = ("event", "consumers")

    def __init__(self, event: ViewEvent, consumers: list):
        self.event = event
        self.consumers = consumers


class ChangefeedHub:
    """Publishes one view's ΔV event stream to attached consumers."""

    def __init__(self, updater, retention: int = DEFAULT_RETENTION, wal=None,
                 metrics=None):
        from repro.metrics import NULL_METRICS

        if retention < 1:
            raise ValueError(f"retention must be >= 1, got {retention}")
        metrics = metrics if metrics is not None else NULL_METRICS
        self.updater = updater
        self.retention = retention
        self.wal = wal
        """The durable log (:class:`~repro.wal.log.WriteAheadLog`) every
        staged event is appended to, or ``None``.  With a WAL the replay
        floor extends below the in-memory buffer: ``open(since=g)``
        falls back to the log when ``g`` predates the buffer."""
        self.checkpoint_fn = None
        """Callback (set by the façade) that cuts a WAL checkpoint of
        the writer's current state; invoked under the writer's critical
        section when the log's interval elapses or a coarse event is
        staged."""
        self._members = threading.Lock()
        self._consumers: list[ChangefeedConsumer] = []
        self._buffer: ReplayBuffer | None = None
        self.events_published = 0
        """Events published since the hub attached (coalesced batches
        count once)."""
        self.callback_errors = 0
        """Live deliveries that raised; each detached its consumer (the
        exception is kept on ``consumer.error``)."""
        self.overflows = 0
        """Pull consumers detached for falling further behind than the
        queue bound (twice the retention window)."""
        self.drops = 0
        """Events discarded by ``backpressure='drop_oldest'`` consumers
        (summed across all of them, detached ones included)."""
        self.parks = 0
        """Deliveries that had to wait (``backpressure='block_writer'``)
        for a full pull queue to drain a slot — each park delayed the
        publisher by up to ``block_timeout`` seconds."""
        self._m_published = metrics.counter(
            "repro_events_published_total",
            "Events published to the changefeed (coalesced batches "
            "count once).",
        )
        self._m_overflows = metrics.counter(
            "repro_consumer_overflows_total",
            "Pull consumers detached for exceeding their queue bound.",
        )
        self._m_drops = metrics.counter(
            "repro_consumer_drops_total",
            "Events discarded by drop_oldest backpressure consumers.",
        )
        self._m_parks = metrics.counter(
            "repro_consumer_parks_total",
            "Deliveries parked waiting for a full pull queue to drain "
            "(block_writer backpressure).",
        )
        self._m_callback_errors = metrics.counter(
            "repro_consumer_callback_errors_total",
            "Live deliveries that raised and detached their consumer.",
        )
        for instrument in (
            self._m_published, self._m_overflows, self._m_drops,
            self._m_parks, self._m_callback_errors,
        ):
            instrument.inc(0)  # materialize at 0 in the exposition

    # -- attachment -----------------------------------------------------------------

    @property
    def attached(self) -> bool:
        """Whether the hub observes commits (true after the first open)."""
        return self._buffer is not None

    @property
    def floor(self) -> int:
        """Oldest resumable generation (the attach generation until the
        replay buffer evicts; with a WAL, the log's compaction floor —
        whichever reaches further back)."""
        if self._buffer is None:
            base = self.updater._version
        else:
            base = self._buffer.floor
        if self.wal is not None:
            return min(base, self.wal.floor)
        return base

    def _ensure_attached(self) -> None:
        if self._buffer is None:
            # Attach exactly once and never detach: replay is only
            # trustworthy while retention is continuous.  Events before
            # the first open are unobservable (floor = attach version).
            self._buffer = ReplayBuffer(
                self.retention, floor=self.updater._version
            )

    # -- the consumer-facing API -----------------------------------------------------

    def validate_since(self, since: int | None) -> None:
        """Raise exactly what :meth:`open` would for this resume point.

        Side-effect free, so :meth:`open` rejects a bad ``since``
        *before* the attach sticks — a failed ``changefeed()`` call must
        not switch on per-commit event construction for the life of the
        service.
        """
        if since is None:
            return
        current = self.updater._version
        if since > current:
            raise ChangefeedError(
                f"since={since} is ahead of the feed (current "
                f"generation is {current})"
            )
        if since < self.floor:
            raise ReplayGapError(since=since, floor=self.floor)

    def open(
        self,
        since: int | None = None,
        on_event=None,
        backpressure: str = "block_writer",
        block_timeout: float | None = None,
    ) -> ChangefeedConsumer:
        """Attach a consumer, optionally replaying from ``since``.

        Callers must hold the writer side of the service lock (the
        :class:`~repro.service.facade.ViewService` façade does), which
        makes replay-then-live gapless: no commit can interleave between
        the replayed batch and the consumer joining the fan-out list.

        ``backpressure``/``block_timeout`` set the pull consumer's
        full-queue policy (see :class:`ChangefeedConsumer`).
        """
        self.validate_since(since)  # before the attach side effect
        self._ensure_attached()
        assert self._buffer is not None
        if since is None:
            replayed: list[ViewEvent] = []
            start = self.updater._version
        elif self.wal is not None and since < self._buffer.floor:
            # The buffer has evicted this range but the durable log
            # still covers it (validate_since checked the WAL floor):
            # replay the logged wire-form events instead.  Identical
            # stream — the buffer and the log are appended together.
            replayed = self.wal.events_since(since)
            start = since
        else:
            replayed = self._buffer.since(since)
            start = since
        consumer = ChangefeedConsumer(
            self, on_event, generation=start,
            # Bound pull queues at twice the retention window — a
            # consumer lagging beyond another window on top of a full
            # replay could no longer resume via replay anyway.  A
            # log-backed replay can exceed the buffer window (the WAL
            # floor sits below the buffer's), so the bound must always
            # cover the attach batch itself plus one retention window
            # of live slack, or the attach would block on its own
            # replay and detach the consumer it is creating.
            max_pending=max(2 * self.retention,
                            len(replayed) + self.retention),
            backpressure=backpressure,
            block_timeout=block_timeout,
        )
        for event in replayed:
            consumer._deliver(event)
        with self._members:
            self._consumers.append(consumer)
        return consumer

    def _discard(self, consumer: ChangefeedConsumer) -> None:
        with self._members:
            if consumer in self._consumers:
                self._consumers.remove(consumer)

    def __len__(self) -> int:
        return len(self._consumers)

    # -- the publish path ---------------------------------------------------------

    def stage(self, event: ViewEvent):
        """Retain ``event`` and snapshot its fan-out list (under the lock).

        The half of publication that *must* stay in the writer's
        critical section: the replay-buffer and WAL append (so a consumer
        attaching right after the lock is released replays this event
        instead of missing it) and the consumer-list snapshot (so that
        same late consumer is not *also* delivered to live — no gaps, no
        duplicates).  Returns an opaque staging token for
        :meth:`deliver`, or ``None`` when the hub never attached.
        """
        if self._buffer is None:
            return None
        self._buffer.append(event)
        if self.wal is not None:
            self.wal.append(event)
            if event.coarse or self.wal.should_checkpoint():
                # Coarse events are not replayable (their edge list does
                # not describe the change), so a checkpoint lands right
                # behind them; otherwise the periodic interval decides.
                # Still inside the writer's critical section: the store
                # and base database are at rest at this generation.
                if self.checkpoint_fn is not None:
                    self.checkpoint_fn()
        self.events_published += 1
        self._m_published.inc()
        with self._members:
            consumers = list(self._consumers)
        return _Staged(event, consumers)

    def deliver(self, staged) -> None:
        """Fan a staged event out to its snapshot of consumers.

        Runs *outside* the write lock (in commit order — the pipeline's
        ticket fence serializes concurrent publishers).
        """
        if staged is None:
            return
        event = staged.event
        for consumer in staged.consumers:
            try:
                if not consumer._deliver(event):
                    self.overflows += 1
                    self._m_overflows.inc()
            except Exception as exc:
                # The commit already happened; letting a consumer bug
                # propagate here would tell the writer its (successful)
                # update failed.  Record and detach the consumer instead.
                consumer.error = exc
                self.callback_errors += 1
                self._m_callback_errors.inc()
                consumer.close()

    # -- backpressure accounting (called by consumers) ----------------------------

    def _on_drop(self) -> None:
        """One event discarded by a ``drop_oldest`` consumer."""
        self.drops += 1
        self._m_drops.inc()

    def _on_park(self) -> None:
        """One ``block_writer`` delivery parked on a full queue."""
        self.parks += 1
        self._m_parks.inc()

    # -- diagnostics ------------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-safe hub statistics (for ``service.stats()``)."""
        return {
            "attached": self.attached,
            "consumers": len(self._consumers),
            "events_published": self.events_published,
            "callback_errors": self.callback_errors,
            "overflows": self.overflows,
            "drops": self.drops,
            "parks": self.parks,
            "retention": self.retention,
            "retained": len(self._buffer) if self._buffer else 0,
            "floor": self.floor,
            "durable": self.wal is not None,
        }
