"""The plan/commit ``ViewService`` façade over one published view.

``repro.open_view(atg, db, config=ViewConfig(...))`` is the public front
door of the system: it publishes the view once and returns a service
whose write path is the typed operation algebra (:mod:`repro.ops`) and
whose read path (:meth:`ViewService.xpath`, :meth:`ViewService.xml_tree`)
is safe to call from other threads while updates — including their
"background" Δ(M,L) maintenance — are in flight, via a write-preferring
readers–writer lock.

Two write protocols:

- ``service.apply(op)`` — translate + apply in one call; a list of ops
  routes through one batched :class:`~repro.core.updater.UpdateSession`
  (one deferred Δ(M,L) repair for the whole batch);
- ``plan = service.plan(op)`` — run the paper's foreground phases only,
  inspect ``plan.targets`` / ``plan.side_effects`` / ``plan.delta_v`` /
  ``plan.delta_r`` / ``plan.timings``, then ``plan.commit()`` (identical
  ΔV/ΔR to ``apply``) or ``plan.abort()`` (state stays byte-identical).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterable

from repro.atg.model import ATG
from repro.changefeed.consumer import ChangefeedConsumer
from repro.changefeed.hub import ChangefeedHub
from repro.core.dag_eval import EvalResult
from repro.core.updater import (
    PlanState,
    UpdateOutcome,
    UpdatePlan,
    XMLViewUpdater,
)
from repro.errors import PlanError, ReproError
from repro.metrics import MetricsRegistry, render_prometheus
from repro.ops import BaseUpdateOp, UpdateOperation, op_from_dict
from repro.relational.database import Database
from repro.service.config import ViewConfig
from repro.service.pipeline import CommitPipeline
from repro.service.rwlock import RWLock
from repro.subscribe.engine import Subscription, SubscriptionRegistry
from repro.xmltree.tree import XMLNode
from repro.xpath.ast import XPath


class ViewService:
    """Thread-safe plan/commit façade over one :class:`XMLViewUpdater`.

    Construct via :func:`open_view`.  All mutation goes through typed
    operations; reads take the shared side of the service lock and are
    safe during concurrent updates and background maintenance.
    """

    def __init__(
        self,
        atg: ATG,
        db: Database,
        config: ViewConfig | None = None,
        wal_fs=None,
    ):
        self.config = config or ViewConfig()
        self._lock = RWLock()
        # One registry for the whole service; every component below
        # registers its instruments here, so ``service.metrics()`` /
        # ``metrics_text()`` expose a single coherent surface.
        self.metrics_registry = MetricsRegistry()
        self._m_ops = self.metrics_registry.counter(
            "repro_ops_total",
            "Update operations applied through the service, by kind "
            "and acceptance.",
        )
        self._m_xpath = self.metrics_registry.histogram(
            "repro_xpath_seconds",
            "XPath read-path evaluation latency (lock wait included).",
        )
        # With ``wal_dir`` set, open (or create) the durable changefeed
        # log first: a non-empty log *recovers* the exact last-durable
        # state — checkpoint restore + record replay — instead of
        # publishing the view fresh from the base tables (whose node
        # ids would not match the logged event stream).
        self.wal = None
        recovered_store = None
        recovered_generation: int | None = None
        if self.config.wal_dir is not None:
            from repro.wal.log import WriteAheadLog
            from repro.wal.recover import recover_state

            self.wal = WriteAheadLog(
                self.config.wal_dir,
                fsync=self.config.wal_fsync,
                segment_bytes=self.config.wal_segment_bytes,
                checkpoint_every=self.config.wal_checkpoint_every,
                keep_checkpoints=self.config.wal_keep_checkpoints,
                fs=wal_fs,
                metrics=self.metrics_registry,
            )
            recovered = recover_state(atg, db, self.wal)
            if recovered is not None:
                recovered_store, recovered_generation = recovered
        self.updater = XMLViewUpdater(
            atg,
            db,
            side_effect_policy=self.config.policy,
            sat_solver=self.config.sat_solver,
            strict=self.config.strict,
            verify_each_update=self.config.verify_each_update,
            rng=self.config.make_rng(),
            index_backend=self.config.index_backend,
            capture_closure_deltas=self.config.capture_closure_deltas,
            store=recovered_store,
        )
        if recovered_generation is not None:
            # Resume the version counter where the log left off so new
            # commits extend the logged generation sequence.
            self.updater._version = recovered_generation
        self.subscriptions = SubscriptionRegistry(
            self.updater, self._lock, metrics=self.metrics_registry,
        )
        # The changefeed hub attaches on the first changefeed() call;
        # from then on it stays attached so replay retention is
        # continuous.  (The hub does not lock internally: changefeed()
        # holds the service write lock across attach, and staging runs
        # inside the writer's critical section.)
        self.changefeeds = ChangefeedHub(
            self.updater,
            retention=self.config.changefeed_retention,
            wal=self.wal,
            metrics=self.metrics_registry,
        )
        # The commit pipeline (plan → mutate → maintain → publish):
        # writes open a pipeline scope, registry maintenance runs as one
        # batched pass before the hub stages the event, and changefeed
        # delivery happens after the lock is released (see
        # docs/architecture.md).  Commits build events only while a
        # subscription is live or the hub is attached.
        self.pipeline = CommitPipeline(
            self._lock, self.updater, self.subscriptions,
            self.changefeeds, metrics=self.metrics_registry,
        )
        self.updater._sink = self.pipeline
        if self.wal is not None:
            # A durable service attaches the hub at construction (not
            # lazily on the first changefeed() call) so every commit
            # from here on is logged.  The initial checkpoint makes the
            # replay floor point at a live checkpoint from generation 0.
            self.changefeeds.checkpoint_fn = self._wal_checkpoint
            self.changefeeds._ensure_attached()
            if not self.wal.has_checkpoint:
                self._wal_checkpoint()

    def _wal_checkpoint(self) -> None:
        """Cut a WAL checkpoint of the current at-rest state.

        Runs inside the writer's critical section (the hub invokes it
        from :meth:`~repro.changefeed.hub.ChangefeedHub.stage`, or
        ``__init__`` calls it before the service is shared), so the
        store and base database are consistent at the current
        generation.  The payload pairs the standard replication
        :class:`~repro.replica.snapshot.Snapshot` with the base rows —
        everything recovery needs to resume, and enough for
        :meth:`~repro.replica.view.ReplicaView.from_wal` to bootstrap
        offline.
        """
        from repro.replica.snapshot import Snapshot

        snapshot = Snapshot.capture(
            self.updater.store,
            generation=self.updater._version,
            config=self.config.to_dict(),
            index_backend=self.updater.index_backend,
        )
        self.wal.write_checkpoint(
            {
                "snapshot": snapshot.to_dict(),
                "db": self.updater.db.export_state(),
            },
            self.updater._version,
        )

    def close(self) -> None:
        """Flush and release the durable log, if any (idempotent).

        A service without ``wal_dir`` has nothing to release; with one,
        ``close()`` fsyncs the active segment per the fsync policy and
        drops cached descriptors.  The service object itself remains
        readable — only the log is detached, and further *writes* would
        fail on the closed log, so treat the service as done.
        """
        if self.wal is not None:
            with self._lock.write():
                self.wal.close()

    def __enter__(self) -> "ViewService":
        """Context-manager entry (no side effects)."""
        return self

    def __exit__(self, *exc) -> bool:
        """Context-manager exit: :meth:`close`."""
        self.close()
        return False

    # -- write path ---------------------------------------------------------------

    def apply(
        self,
        op: UpdateOperation | dict | Iterable[UpdateOperation | dict],
    ) -> UpdateOutcome | list[UpdateOutcome]:
        """Translate and apply one op, or a batch of ops.

        Accepts op instances or their wire dicts.  A single op returns
        its :class:`UpdateOutcome`; a list returns the outcome list and
        routes through one batched update session, so the whole batch
        pays a single deferred Δ(M,L) repair.  ``BaseUpdateOp`` cannot
        ride in a batch (base propagation needs ``M``/``L`` repaired,
        which the session defers) — apply it on its own.

        Under ``strict`` config a rejected op raises out of the batch
        after the session flushes; the already-committed outcomes (whose
        ``delta_r`` feeds :meth:`undo`) ride on the exception as
        ``exc.batch_outcomes``.
        """
        if isinstance(op, (UpdateOperation, dict)):
            decoded = self._decode(op)
            with self.pipeline.scope() as record:
                # The same dispatch as updater.apply_op, with the two
                # foreground phases marked on the commit record.
                with record.phase("plan"):
                    plan = self.updater.plan(decoded)
                if plan.state is PlanState.REJECTED:
                    # strict mode raised inside plan()
                    return self._count_op(plan.outcome)
                return self._count_op(plan.commit())
        ops = [self._decode(item) for item in op]
        base = [o for o in ops if isinstance(o, BaseUpdateOp)]
        if base:
            raise PlanError(
                "a batched apply cannot contain base updates (the batch "
                "session defers the M/L repair base propagation needs); "
                "apply them individually"
            )
        outcomes: list[UpdateOutcome] = []
        with self.pipeline.scope():
            try:
                with self.updater.batch():
                    for decoded in ops:
                        outcomes.append(
                            self._count_op(self.updater.apply_op(decoded))
                        )
            except ReproError as exc:
                # Ops before the failure are committed (the session has
                # flushed); hand their outcomes to the caller for
                # inspection or undo.
                exc.batch_outcomes = outcomes
                raise
        return outcomes

    def _count_op(self, outcome: UpdateOutcome) -> UpdateOutcome:
        """Account one applied op on the metrics surface (pass-through)."""
        self._m_ops.labels(
            kind=outcome.kind,
            accepted="true" if outcome.accepted else "false",
        ).inc()
        return outcome

    def plan(self, op: UpdateOperation | dict) -> UpdatePlan:
        """Run the foreground phases; commit/abort later.

        The returned plan's ``commit()``/``abort()`` open a full write
        section (a pipeline scope), so a held plan can be completed from
        any thread and its commit publishes through the same
        maintain/publish phases as :meth:`apply`.
        """
        decoded = self._decode(op)
        with self._lock.write():
            plan = self.updater.plan(decoded)
        plan._write_lock = self.pipeline.scope
        return plan

    def undo(self, outcome: UpdateOutcome):
        """Invert an accepted update's ΔR and re-synchronize the view."""
        with self.pipeline.scope():
            return self.updater.undo(outcome)

    @contextmanager
    def batch(self):
        """Exclusive batched session: N applies, one Δ(M,L) repair."""
        with self.pipeline.scope():
            with self.updater.batch() as session:
                yield _BatchHandle(self.updater, session)

    # -- subscriptions -------------------------------------------------------------

    def subscribe(self, path: str | XPath) -> Subscription:
        """Register ``path`` as a live query and evaluate it eagerly.

        The returned :class:`~repro.subscribe.engine.Subscription` is
        maintained incrementally from the ΔV every committed op emits:
        ``sub.result()`` always equals a fresh :meth:`xpath` evaluation
        of the same path (as a sorted node-id tuple), usually without
        re-evaluating anything.  Maintenance happens inside the writer's
        critical section; ``result()`` takes the read side.  Call
        ``sub.close()`` to stop maintaining it.
        """
        with self._lock.write():
            return self.subscriptions.subscribe(path)

    # -- changefeed ----------------------------------------------------------------

    def changefeed(
        self,
        since: int | None = None,
        on_event=None,
        backpressure: str = "block_writer",
        block_timeout: float | None = None,
    ) -> ChangefeedConsumer:
        """Attach a consumer to this view's published event stream.

        One JSON-serializable :class:`~repro.subscribe.delta.ViewEvent` per
        committed generation observable at rest (batches arrive as one
        coalesced event), specified in ``docs/event-schema.md``.

        ``since=g`` resumes after generation ``g``: retained events are
        replayed in order before any live delivery, gaplessly (attach
        holds the write lock).  A resume point older than the retention
        window raises :class:`~repro.errors.ReplayGapError`; one ahead
        of the feed raises :class:`~repro.errors.ChangefeedError`.
        ``since=None`` starts from now.  Events before the service's
        *first* ``changefeed()`` call are not retained — open the feed
        early (e.g. right after :func:`open_view`) if you need replay
        from generation 0.

        ``on_event=fn`` selects callback mode: ``fn(event)`` runs
        synchronously on the committing thread during the pipeline's
        *publish* phase — after subscription maintenance for the event's
        generation completed (so ``sub.result()``/``sub.delta()`` read
        consistently with the event), and after the write lock was
        released, so the callback never extends the critical section.
        Writing back into the service from the callback raises
        :class:`~repro.errors.PlanError`; a
        callback that raises is detached (``consumer.error``) rather
        than failing the commit.
        Without ``on_event`` the returned consumer is a pull handle:
        iterate it, or call ``next_event(timeout=...)`` / ``events()``;
        ``close()`` detaches.  Pull queues are bounded at twice the
        retention window; what happens at the bound is the consumer's
        ``backpressure`` policy: ``'block_writer'`` (default) makes
        delivery wait up to ``block_timeout`` seconds for the consumer
        to drain a slot and detaches it only if none frees up (the
        backlog stays drainable; ``consumer.error`` explains how to
        reattach), ``'drop_oldest'`` discards the oldest queued event
        and keeps the consumer attached (lossy; counted in the hub's
        ``drops`` stat).
        """
        with self._lock.write():
            return self.changefeeds.open(
                since=since, on_event=on_event,
                backpressure=backpressure, block_timeout=block_timeout,
            )

    # -- read path ----------------------------------------------------------------

    def xpath(self, path: str | XPath) -> EvalResult:
        """Evaluate an XPath on the current view (no update)."""
        start = time.perf_counter()
        try:
            with self._lock.read():
                return self.updater.evaluate_xpath(path)
        finally:
            self._m_xpath.observe(time.perf_counter() - start)

    # Drop-in alias for code migrating from the updater surface.
    evaluate_xpath = xpath

    def snapshot(self):
        """A durable, generation-stamped replication snapshot.

        Returns a :class:`~repro.replica.snapshot.Snapshot` artifact —
        the complete store state plus config and provenance metadata,
        captured under the read lock so it is consistent with one
        generation.  ``snapshot.save(path)`` /
        ``Snapshot.load(path)`` round-trip it through a gzip-compressed
        file; a :class:`~repro.replica.ReplicaView` bootstraps from it
        and resumes the changefeed at ``snapshot.generation``.

        .. note:: Before 0.7.0 this method returned the unfolded XML
           tree; that read moved to :meth:`xml_tree`.
        """
        from repro.replica.snapshot import Snapshot

        with self._lock.read():
            return Snapshot.capture(
                self.updater.store,
                generation=self.updater._version,
                config=self.config.to_dict(),
                index_backend=self.updater.index_backend,
            )

    def check_consistency(self) -> list[str]:
        """Verify state against a fresh republish; [] means consistent.

        O(|V|)-ish — intended for tests, not per-update production use.
        """
        with self._lock.read():
            return self.updater.check_consistency()

    def stats(self) -> dict:
        """JSON-safe service statistics (store/M/L sizes, config)."""
        with self._lock.read():
            store = self.updater.store
            return {
                "generation": self.updater._version,
                "nodes": store.num_nodes,
                "edges": store.num_edges,
                "reach_pairs": len(self.updater.reach),
                "topo_len": len(self.updater.topo),
                "maintenance_runs": self.updater.maintenance_runs,
                "index_backend": self.updater.index_backend,
                "subscriptions": self.subscriptions.stats(),
                "changefeed": self.changefeeds.stats(),
                "pipeline": self.pipeline.stats(),
                "wal": self.wal.stats() if self.wal is not None else None,
                "config": self.config.to_dict(),
            }

    def _refresh_gauges(self) -> None:
        """Set the point-in-time gauges from live state (under the
        read lock, so one scrape describes one generation)."""
        reg = self.metrics_registry
        store = self.updater.store
        reg.gauge(
            "repro_generation", "Current committed view generation."
        ).set(self.updater._version)
        reg.gauge("repro_view_nodes", "Nodes in the view store.").set(
            store.num_nodes
        )
        reg.gauge("repro_view_edges", "Edges in the view store.").set(
            store.num_edges
        )
        reg.gauge(
            "repro_subscriptions_active", "Standing subscriptions."
        ).set(len(list(self.subscriptions)))
        reg.gauge(
            "repro_changefeed_consumers", "Attached changefeed consumers."
        ).set(len(self.changefeeds))

    def metrics(self) -> dict:
        """The metrics surface as a JSON-safe dict.

        Counters and histograms accumulate since construction; gauges
        (generation, store sizes, consumer counts) are refreshed at
        call time under the read lock.  See ``docs/observability.md``
        for the catalog.
        """
        with self._lock.read():
            self._refresh_gauges()
            return self.metrics_registry.to_dict()

    def metrics_text(self) -> str:
        """The metrics surface in Prometheus text exposition format.

        The output passes ``scripts/validate_metrics.py`` and is
        byte-deterministic for a given registry state (families sorted
        by name, series by label value).
        """
        with self._lock.read():
            self._refresh_gauges()
            return render_prometheus(self.metrics_registry)

    # -- delegation (read-mostly internals used by tests/benchmarks) ---------------

    @property
    def atg(self) -> ATG:
        """The view definition σ this service publishes."""
        return self.updater.atg

    @property
    def db(self) -> Database:
        """The base database I (mutated in place by accepted updates)."""
        return self.updater.db

    @property
    def store(self):
        """The DAG view store V (read-mostly delegation)."""
        return self.updater.store

    @property
    def topo(self):
        """The topological order L (read-mostly delegation)."""
        return self.updater.topo

    @property
    def reach(self):
        """The reachability index M (read-mostly delegation)."""
        return self.updater.reach

    @property
    def registry(self):
        """The edge-view registry (read-mostly delegation)."""
        return self.updater.registry

    @property
    def index_backend(self) -> str:
        """The resolved reachability-index backend name."""
        return self.updater.index_backend

    @property
    def maintenance_runs(self) -> int:
        """Δ(M,L) repair passes run so far (batching amortizes them)."""
        return self.updater.maintenance_runs

    def xml_tree(self) -> XMLNode:
        """The current XML view, unfolded to an (uncompressed) tree."""
        with self._lock.read():
            return self.updater.xml_tree()

    # -- helpers ------------------------------------------------------------------

    @staticmethod
    def _decode(op: UpdateOperation | dict) -> UpdateOperation:
        if isinstance(op, UpdateOperation):
            return op
        return op_from_dict(op)


class _BatchHandle:
    """What ``with service.batch() as batch:`` yields."""

    def __init__(self, updater: XMLViewUpdater, session):
        self._updater = updater
        self.session = session

    def apply(self, op: UpdateOperation | dict) -> UpdateOutcome:
        return self._updater.apply_op(ViewService._decode(op))


def open_view(
    atg: ATG,
    db: Database,
    config: ViewConfig | None = None,
    wal_fs=None,
) -> ViewService:
    """Publish ``σ(I)`` and open the plan/commit service façade over it.

    With ``config.wal_dir`` set, an existing log in that directory is
    *recovered* instead: the newest checkpoint is restored into ``db``
    and the store, the logged records past it are replayed, and the
    service resumes at the last durable generation (see
    ``docs/durability.md``).  ``wal_fs`` injects a file-system seam for
    the log (fault-injection tests); it is deliberately not part of
    :class:`~repro.service.config.ViewConfig`, which stays serializable.
    """
    return ViewService(atg, db, config=config, wal_fs=wal_fs)
