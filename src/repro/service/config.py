"""One immutable configuration value for a view service.

:class:`ViewConfig` consolidates the knobs that were previously
scattered over the :class:`~repro.core.updater.XMLViewUpdater`
constructor (index backend, side-effect policy, SAT solver, strictness,
per-update verification, RNG seed) into a single frozen, serializable
dataclass — the shape a deployment config or a service registry wants.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields

from repro.changefeed.hub import DEFAULT_RETENTION
from repro.core.updater import SideEffectPolicy
from repro.errors import ReproError
from repro.index import resolve_backend

#: Default RNG seed (the paper's submission date, as in the updater).
DEFAULT_SEED = 20070415


@dataclass(frozen=True)
class ViewConfig:
    """How a :class:`~repro.service.facade.ViewService` behaves.

    Attributes
    ----------
    index_backend:
        Reachability-index engine for ``M``: ``'auto'`` (default:
        the NumPy ``'matrix'`` backend when NumPy is importable, else
        ``'bitset'``), ``'matrix'``, ``'bitset'`` or ``'sets'`` (see
        :mod:`repro.index` and ``docs/index-backends.md``).
    side_effects:
        ``'abort'`` (default) rejects updates with XML side effects;
        ``'propagate'`` applies them at every occurrence (the paper's
        revised semantics).
    sat_solver:
        ``'auto'`` | ``'walksat'`` | ``'dpll'`` for insertion translation.
    strict:
        When True (default) rejections raise; when False they come back
        as unaccepted outcomes (the benchmark setting).
    verify_each_update:
        Re-verify against a republish after every update (tests only —
        O(|V|) per update).
    seed:
        Seed for the SAT translation RNG; a fixed seed makes two
        identically configured services produce identical ΔR.
    changefeed_retention:
        How many published events the changefeed's replay buffer keeps
        (``service.changefeed(since=...)`` can resume from any retained
        generation; older resume points raise
        :class:`~repro.errors.ReplayGapError`).
    capture_closure_deltas:
        Whether Δ(M,L) repairs capture the exact closure pair-delta of
        ``M`` (snapshot + bulk diff; feeds leading-``//`` subscription
        patches — see ``docs/index-backends.md``).  ``'auto'``
        (default) captures only while such a subscription is live;
        ``True``/``False`` force it on or off.
    wal_dir:
        Directory of the durable changefeed log (:mod:`repro.wal`), or
        ``None`` (default) for a purely in-memory service.  When set,
        every committed event is appended to the log, periodic
        checkpoints are cut, and ``open_view`` against a non-empty
        directory *recovers* the exact last-durable state instead of
        building the view from the base tables.  See
        ``docs/durability.md``.
    wal_fsync:
        The log's fsync policy: ``'always'`` (fsync per commit),
        ``'batch'`` (default: fsync every
        :data:`~repro.wal.log.BATCH_FSYNC_INTERVAL` commits and at every
        rotation/checkpoint/close) or ``'os'`` (leave flushing to the
        OS page cache).
    wal_segment_bytes:
        Segment rotation threshold in bytes.
    wal_checkpoint_every:
        Committed events between periodic WAL checkpoints.
    wal_keep_checkpoints:
        Checkpoints retained before compaction advances the replay
        floor and deletes fully-covered segments.
    """

    index_backend: str = "auto"
    side_effects: str = "abort"
    sat_solver: str = "auto"
    strict: bool = True
    verify_each_update: bool = False
    seed: int = DEFAULT_SEED
    changefeed_retention: int = DEFAULT_RETENTION
    capture_closure_deltas: bool | str = "auto"
    wal_dir: str | None = None
    wal_fsync: str = "batch"
    wal_segment_bytes: int = 1 << 20
    wal_checkpoint_every: int = 256
    wal_keep_checkpoints: int = 2

    def __post_init__(self):
        resolve_backend(self.index_backend)  # raises on unknown names
        if self.side_effects not in ("abort", "propagate"):
            raise ReproError(
                f"side_effects must be 'abort' or 'propagate', "
                f"got {self.side_effects!r}"
            )
        if self.sat_solver not in ("auto", "walksat", "dpll"):
            raise ReproError(
                f"sat_solver must be 'auto', 'walksat' or 'dpll', "
                f"got {self.sat_solver!r}"
            )
        if self.changefeed_retention < 1:
            raise ReproError(
                f"changefeed_retention must be >= 1, "
                f"got {self.changefeed_retention!r}"
            )
        if self.capture_closure_deltas not in (True, False, "auto"):
            raise ReproError(
                f"capture_closure_deltas must be True, False or 'auto', "
                f"got {self.capture_closure_deltas!r}"
            )
        if self.wal_dir is not None and not isinstance(self.wal_dir, str):
            raise ReproError(
                f"wal_dir must be a string path or None, "
                f"got {self.wal_dir!r}"
            )
        if self.wal_fsync not in ("always", "batch", "os"):
            raise ReproError(
                f"wal_fsync must be 'always', 'batch' or 'os', "
                f"got {self.wal_fsync!r}"
            )
        if self.wal_segment_bytes < 1024:
            raise ReproError(
                f"wal_segment_bytes must be >= 1024, "
                f"got {self.wal_segment_bytes!r}"
            )
        if self.wal_checkpoint_every < 1:
            raise ReproError(
                f"wal_checkpoint_every must be >= 1, "
                f"got {self.wal_checkpoint_every!r}"
            )
        if self.wal_keep_checkpoints < 1:
            raise ReproError(
                f"wal_keep_checkpoints must be >= 1, "
                f"got {self.wal_keep_checkpoints!r}"
            )

    @property
    def policy(self) -> SideEffectPolicy:
        """The ``side_effects`` string as the updater's enum."""
        return (
            SideEffectPolicy.ABORT
            if self.side_effects == "abort"
            else SideEffectPolicy.PROPAGATE
        )

    def make_rng(self) -> random.Random:
        """A fresh RNG seeded with :attr:`seed` (one per service)."""
        return random.Random(self.seed)

    # -- wire format --------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form (inverse of :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ViewConfig":
        """Decode :meth:`to_dict` output; unknown keys raise."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ReproError(f"unknown ViewConfig field(s): {unknown}")
        return cls(**payload)
