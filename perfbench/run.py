"""The repository benchmark: generated op streams through ``ViewService``.

Run from the repository root::

    python3 perfbench/run.py --workload churn --seed 1 --seconds 20 --trace 0

One client drives ``repro.open_view(...)`` in a closed loop, in one
thread of one process: each op is sent when the previous one has
returned.  A run replays the workload's generated stream on a freshly
opened view again and again (each pass is a *repeat*) until
``--seconds`` have passed, checks every repeat (untimed), and prints
every metric with its unit.  Times are rescaled to a reference machine
by the speed probe of ``probe.py``; the wall-clock figures are printed
beside them.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``, which holds the
end-to-end metrics with ``--trace 0`` and the per-layer metrics (from
spans recorded around each layer, see ``tracing.py``) with
``--trace 1``.

A failed correctness check prints what failed to standard error and
exits with status 1 without a result line.  ``perfbench/NOTES.md``
gives the reasons for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from probe import REFERENCE_S, SpeedProbe, scales

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"

#: Every run measures at least this many repeats, and at least this
#: many set-ups (extra set-up-only samples make up the difference).
MIN_REPEATS = 3
MIN_SETUPS = 5

#: Probe samples taken around each set-up.
SETUP_PROBES = 5

#: ``view.nodes_end`` may drift this far from the start (share).
SIZE_DRIFT = 0.10

#: ``UpdateOutcome.timings`` stages and pipeline phases (program clocks).
OUTCOME_STAGES = (
    "validate", "xpath", "translate_v", "translate_r", "apply", "maintain",
)
PIPELINE_PHASES = ("plan", "mutate", "maintain", "publish")

#: Subscription counters that each record one refresh decision.
SUB_DECISIONS = (
    "skips", "suffix_refreshes", "full_refreshes", "fallback_refreshes",
    "closure_patches",
)

#: Times are on the reference machine of ``probe.py``.
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "insert_p50_ms": "ms",
    "insert_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class CheckFailed(Exception):
    """A correctness check failed; the run must not report metrics."""


@dataclass
class Opened:
    """A freshly opened service with its standing readers."""

    service: object
    subscriptions: list
    feed: object
    wal_dir: str | None
    setup_s: float
    """Wall-clock set-up time."""
    setup_scale: float
    """Probe factor to the reference machine around the set-up."""

    def close(self) -> None:
        if self.feed is not None:
            self.feed.close()
        self.service.close()
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)


@dataclass
class Repeat:
    """One pass of a stream over a freshly opened view.

    The loop is cut into segments, one per write: the write, the reads
    after it and the changefeed drain.  A probe sample follows each
    segment and scales the segment's times.
    """

    stream: int
    """Index of the replayed stream among the run's streams."""
    setup_s: float
    setup_scale: float
    segments: list = field(default_factory=list)
    """Wall-clock seconds of each segment (probe excluded)."""
    probes: list = field(default_factory=list)
    """Probe duration after each segment."""
    samples: list = field(default_factory=list)
    """``(kind, wall-clock seconds, segment index)`` per op."""
    rejected: list = field(default_factory=list)
    clocks: dict = field(default_factory=dict)
    stats_start: dict = field(default_factory=dict)
    stats_end: dict = field(default_factory=dict)
    wal_bytes: int = 0

    @property
    def ops(self) -> int:
        return len(self.samples)

    @property
    def writes(self) -> int:
        return len(self.segments)

    def scales(self, reference: bool = True) -> list[float]:
        """Per-segment factors to the reference machine (1 = as measured)."""
        return scales(self.probes) if reference else [1.0] * self.writes

    def latencies(self, kind: str, reference: bool = True) -> list[float]:
        scale = self.scales(reference)
        return [
            seconds * scale[seg]
            for k, seconds, seg in self.samples
            if k == kind
        ]

    def loop_s(self, reference: bool = True) -> float:
        scaled = zip(self.segments, self.scales(reference))
        return sum(s * f for s, f in scaled)


def by_stream(repeats: list[Repeat]) -> list[list[Repeat]]:
    groups: dict[int, list[Repeat]] = {}
    for rep in repeats:
        groups.setdefault(rep.stream, []).append(rep)
    return [groups[index] for index in sorted(groups)]


def throughput(repeats: list[Repeat], reference: bool = True) -> float:
    """Ops per second: each stream's ops over its median loop time."""
    groups = by_stream(repeats)
    return sum(group[0].ops for group in groups) / sum(
        statistics.median(rep.loop_s(reference) for rep in group)
        for group in groups
    )


def open_service(dataset, workload, header, probe) -> Opened:
    """``open_view`` plus the standing subscriptions: the set-up time."""
    from repro import ViewConfig, open_view

    db = dataset.db.copy()  # accepted ops mutate the base in place
    wal_dir = None
    if workload.durable:
        CACHE.mkdir(parents=True, exist_ok=True)
        wal_dir = tempfile.mkdtemp(prefix="wal-", dir=CACHE)
    config = ViewConfig(strict=False, wal_dir=wal_dir)
    gc.collect()
    around = probe.samples(SETUP_PROBES)
    start = time.perf_counter()
    service = open_view(dataset.atg, db, config)
    subs = [service.subscribe(path) for path in header["subscriptions"]]
    feed = service.changefeed() if workload.durable else None
    setup_s = time.perf_counter() - start
    around += probe.samples(SETUP_PROBES)
    scale = REFERENCE_S / statistics.median(around)
    return Opened(service, subs, feed, wal_dir, setup_s, scale)


def run_repeat(
    dataset, workload, stream, header, ops, probe, tracer=None
) -> Repeat:
    """Open a view, replay ``ops`` through it, check it; then close it."""
    from repro.relview.insert import reset_fresh_counter

    reset_fresh_counter()  # identical ΔR on every repeat of a process
    opened = open_service(dataset, workload, header, probe)
    service, feed = opened.service, opened.feed
    rep = Repeat(stream, opened.setup_s, opened.setup_scale)
    rep.stats_start = service.stats()
    wal_bytes_start = _dir_bytes(opened.wal_dir)
    queries = header["queries"]
    reads_per_write = workload.reads_per_write
    samples, segments, probes = rep.samples, rep.segments, rep.probes
    clocks = dict.fromkeys(OUTCOME_STAGES, 0.0)
    delivered = []
    query = 0
    clock = time.perf_counter
    if tracer is not None:
        tracer.install()
    try:
        for index, op in enumerate(ops):
            segment = len(segments)
            t0 = clock()
            outcome = service.apply(op)
            t1 = clock()
            samples.append((op["op"], t1 - t0, segment))
            if not outcome.accepted:
                rep.rejected.append((index, outcome.reason))
            for stage, seconds in outcome.timings.items():
                clocks[stage] = clocks.get(stage, 0.0) + seconds
            if feed is not None:
                delivered.extend(feed.events())
            for _ in range(reads_per_write):
                path = queries[query % len(queries)]
                query += 1
                t2 = clock()
                service.xpath(path)
                samples.append(("read", clock() - t2, segment))
            segments.append(clock() - t0)
            probes.append(probe.sample())
    finally:
        if tracer is not None:
            tracer.uninstall()
    rep.clocks = clocks
    rep.stats_end = service.stats()
    rep.wal_bytes = _dir_bytes(opened.wal_dir) - wal_bytes_start
    try:
        _check(rep, opened, dataset, ops, delivered)
    finally:
        opened.close()
    return rep


def _check(rep, opened, dataset, ops, delivered) -> None:
    """The untimed correctness gate of one repeat."""
    service = opened.service
    start, end = rep.stats_start, rep.stats_end
    problems = []
    if rep.rejected:
        problems.append(
            f"{len(rep.rejected)} of {len(ops)} pre-validated ops were "
            f"rejected, first: {rep.rejected[0]}"
        )
    if end["generation"] - start["generation"] != len(ops):
        problems.append(
            f"generation advanced {end['generation'] - start['generation']}"
            f" for {len(ops)} ops"
        )
    problems += service.check_consistency()
    for sub in opened.subscriptions:
        fresh = tuple(sorted(service.xpath(sub.path).targets))
        if sub.result() != fresh:
            problems.append(f"subscription {sub.path!r} != fresh xpath")
    if opened.feed is not None:
        if len(delivered) != len(ops) or (
            delivered and delivered[-1].generation != end["generation"]
        ):
            problems.append(
                f"changefeed delivered {len(delivered)} events for "
                f"{len(ops)} commits"
            )
    if abs(end["nodes"] - start["nodes"]) > SIZE_DRIFT * start["nodes"]:
        problems.append(
            f"view size drifted: {start['nodes']} -> {end['nodes']} nodes"
        )
    if opened.wal_dir is not None:
        from repro import ViewConfig, open_view

        service.close()
        config = ViewConfig(strict=False, wal_dir=opened.wal_dir)
        with open_view(dataset.atg, dataset.db.copy(), config) as recovered:
            got = recovered.stats()
        for key in ("generation", "nodes", "edges"):
            if got[key] != end[key]:
                problems.append(
                    f"WAL recovery: {key} {got[key]} != {end[key]}"
                )
    if problems:
        raise CheckFailed("; ".join(problems))


def _dir_bytes(path: str | None) -> int:
    if path is None:
        return 0
    return sum(
        entry.stat().st_size for entry in Path(path).rglob("*")
        if entry.is_file()
    )


# -- metrics ---------------------------------------------------------------------------


def _pct(samples: list[float], q: int) -> float:
    """The ``q``-th percentile, seconds in and milliseconds out."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    return cuts[q - 1] * 1000


def end_to_end(repeats: list[Repeat], setups: list[float], reference=True):
    """The end-to-end metrics and the per-kind latencies not every
    workload has, on the reference machine or (``reference=False``) as
    measured."""
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The repeats of one stream replay the same ops, so the n-th op of a
    # kind is the same op in each; its latency is the median over them.
    per_op = {
        kind: [
            statistics.median(times)
            for group in by_stream(repeats)
            for times in zip(*(rep.latencies(kind, reference) for rep in group))
        ]
        for kind in ("insert", "delete", "read")
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": throughput(repeats, reference),
        "insert_p50_ms": _pct(per_op["insert"], 50),
        "insert_p90_ms": _pct(per_op["insert"], 90),
        "peak_rss_mb": peak_kb / 1024,
    }
    extra = {}
    for kind in ("delete", "read"):
        if per_op[kind]:
            extra[f"{kind}_p50_ms"] = _pct(per_op[kind], 50)
            extra[f"{kind}_p90_ms"] = _pct(per_op[kind], 90)
    return metrics, extra


def per_layer(traced: list[Repeat], plain: list[Repeat], tracer) -> dict:
    """The per-layer metrics of the traced repeats; times are rescaled
    to the reference machine by the median probe factor of those
    repeats."""
    from tracing import ROOTS, SPANS

    scale = statistics.median(f for rep in traced for f in rep.scales())
    ops = sum(rep.ops for rep in traced)
    writes = sum(rep.writes for rep in traced)
    root = tracer.root_seconds
    metrics = {}
    for span in SPANS:
        self_s = tracer.self_seconds.get(span, 0.0)
        metrics[f"{span}.calls_per_op"] = tracer.calls.get(span, 0) / ops
        metrics[f"{span}.self_ms_per_op"] = self_s * scale * 1000 / ops
        metrics[f"{span}.self_share"] = self_s / root
    counts = tracer.counts
    metrics["sat.vars_per_solve"] = _ratio(
        counts["sat.vars"], counts["sat.solves"]
    )
    metrics["sat.clauses_per_solve"] = _ratio(
        counts["sat.clauses"], counts["sat.solves"]
    )
    metrics["sat.giveup_ratio"] = _ratio(
        counts["sat.walksat_giveups"], counts["sat.walksat_calls"]
    )
    metrics["relview.derivations_per_insert"] = _ratio(
        counts["relview.derivations"], counts["relview.insert_translations"]
    )
    skips = decisions = commits = fsyncs = wal_bytes = 0
    lock_hold = 0.0
    phases = dict.fromkeys(PIPELINE_PHASES, 0.0)
    for rep in traced:
        start, end = rep.stats_start, rep.stats_end
        subs_start, subs_end = start["subscriptions"], end["subscriptions"]
        skips += subs_end["skips"] - subs_start["skips"]
        decisions += sum(
            subs_end[key] - subs_start[key] for key in SUB_DECISIONS
        )
        pipe_start, pipe_end = start["pipeline"], end["pipeline"]
        commits += pipe_end["commits"] - pipe_start["commits"]
        lock_hold += (
            pipe_end["lock_hold_seconds"] - pipe_start["lock_hold_seconds"]
        )
        for phase in PIPELINE_PHASES:
            phases[phase] += (
                pipe_end["phase_seconds"][phase]
                - pipe_start["phase_seconds"][phase]
            )
        if end["wal"] is not None:
            fsyncs += end["wal"]["fsyncs"] - start["wal"]["fsyncs"]
            wal_bytes += rep.wal_bytes
    metrics["subscribe.skip_ratio"] = _ratio(skips, decisions)
    metrics["service.lock_hold_ms_per_commit"] = _ratio(
        lock_hold * scale * 1000, commits
    )
    phase_total = sum(phases.values())
    for phase in PIPELINE_PHASES:
        metrics[f"service.phase_share.{phase}"] = _ratio(
            phases[phase], phase_total
        )
    metrics["wal.bytes_per_commit"] = _ratio(wal_bytes, commits)
    metrics["wal.fsyncs_per_commit"] = _ratio(fsyncs, commits)
    last = traced[-1].stats_end
    metrics["index.reach_pairs"] = last["reach_pairs"]
    metrics["view.nodes_end"] = last["nodes"]
    metrics["view.edges_end"] = last["edges"]
    metrics["trace.overhead_ratio"] = throughput(traced) / throughput(plain)
    metrics["trace.uncovered_share"] = sum(
        tracer.self_seconds.get(span, 0.0) for span in ROOTS
    ) / root
    for stage in OUTCOME_STAGES:
        seconds = sum(rep.clocks.get(stage, 0.0) for rep in traced)
        metrics[f"clock.outcome.{stage}.ms_per_write"] = (
            seconds * scale * 1000 / writes
        )
    for phase in PIPELINE_PHASES:
        metrics[f"clock.pipeline.{phase}.ms_per_write"] = (
            phases[phase] * scale * 1000 / writes
        )
    return metrics


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_unit(name: str) -> str:
    if name.endswith(("_ms_per_op", ".ms_per_write", "_ms_per_commit")):
        return "ms"
    if name.endswith("calls_per_op"):
        return "count/op"
    if name.endswith("bytes_per_commit"):
        return "B/commit"
    if name.endswith(("_per_commit", "_per_solve", "_per_insert")) or (
        name.startswith(("index.", "view."))
    ):
        return "count"
    return "ratio"


def predictions(workload: str, metrics: dict) -> list[tuple[str, bool]]:
    """The recorded predictions a traced run can check by itself."""

    def share(*spans):
        return sum(metrics[f"{span}.self_share"] for span in spans)

    translate = share(
        "relview.translate_insertions", "relview.translate_deletions",
        "relview.expand_view_deletions", "sat.encode_formula", "sat.solve",
    )
    repair = share("maintenance.maintain", "dag_eval.write")
    publish_calls = sum(
        metrics[f"{span}.calls_per_op"]
        for span in ("subscribe.apply_batched", "changefeed.stage",
                     "changefeed.deliver", "wal.append")
    )
    checks = []
    if workload == "churn":
        checks.append((
            "relview.* + sat.* self share > maintenance.maintain + "
            f"dag_eval.write ({translate:.3f} vs {repair:.3f})",
            translate > repair,
        ))
    if workload == "dense_dag":
        checks.append((
            "maintenance.maintain + dag_eval.write self share > "
            f"relview.* + sat.* ({repair:.3f} vs {translate:.3f})",
            repair > translate,
        ))
    if workload == "serve":
        checks.append((
            f"subscribe/changefeed/wal spans run ({publish_calls:.2f} "
            "calls/op)",
            publish_calls > 0,
        ))
    else:
        checks.append((
            f"subscribe/changefeed/wal spans absent ({publish_calls:.2f} "
            "calls/op)",
            publish_calls == 0,
        ))
    return checks


# -- provenance -------------------------------------------------------------------------


def fingerprint(repeats: list[Repeat]) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    first, last = repeats[0], repeats[-1]
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "index_backend": last.stats_end["index_backend"],
        "nproc": os.cpu_count(),
        "view_start": [first.stats_start["nodes"], first.stats_start["edges"]],
        "view_end": [last.stats_end["nodes"], last.stats_end["edges"]],
    }


# -- one run ---------------------------------------------------------------------------------


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    from streams import build_dataset, load_stream
    from tracing import Tracer

    inputs = [
        load_stream(SRC, CACHE, workload, stream_seed)
        for stream_seed in workload.stream_seeds(seed)
    ]
    dataset = build_dataset()
    probe = SpeedProbe()
    tracer = Tracer() if trace else None
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    deadline = time.perf_counter() + seconds
    while (
        len(plain) < MIN_REPEATS * len(inputs)
        or time.perf_counter() < deadline
    ):
        stream = len(plain) % len(inputs)
        header, ops = inputs[stream]
        plain.append(run_repeat(dataset, workload, stream, header, ops, probe))
        if trace:
            traced.append(run_repeat(
                dataset, workload, stream, header, ops, probe, tracer
            ))
    repeats = plain + traced
    ends = {
        (r.stream, r.stats_end["generation"], r.stats_end["nodes"],
         r.stats_end["edges"])
        for r in repeats
    }
    if len(ends) != len(inputs):
        raise CheckFailed(f"repeats ended in different views: {sorted(ends)}")
    setups = [(rep.setup_s, rep.setup_scale) for rep in repeats]
    while len(setups) < MIN_SETUPS:
        opened = open_service(dataset, workload, inputs[0][0], probe)
        setups.append((opened.setup_s, opened.setup_scale))
        opened.close()
    metrics, extra = end_to_end(plain, [s * f for s, f in setups])
    wall, wall_extra = end_to_end(plain, [s for s, _ in setups], False)
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "streams": len(inputs),
        "repeats": len(plain),
        "setup_samples": len(setups),
        "ops_per_repeat": {
            kind: len(plain[0].latencies(kind, False))
            for kind in ("insert", "delete", "read")
        },
        "probe_ms": statistics.median(
            p * 1000 for rep in plain for p in rep.probes
        ),
        "fingerprint": fingerprint(repeats),
        "end_to_end": metrics,
        "extra": extra,
        "wall_clock": {**wall, **wall_extra},
        "attempted": sum(rep.ops for rep in plain),
    }
    if trace:
        layer = per_layer(traced, plain, tracer)
        record["per_layer"] = layer
        record["predictions"] = [
            {"prediction": text, "holds": ok}
            for text, ok in predictions(workload.name, layer)
        ]
        record["attempted"] = sum(rep.ops for rep in traced)
        _write_spans(tracer, workload.name, seed)
    return record


def _write_spans(tracer, workload: str, seed: int) -> None:
    path = CACHE / "traces" / f"{workload}-{seed}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for name, start, end, parent in tracer.spans:
            handle.write(json.dumps([name, start, end, parent]) + "\n")


def report(record: dict) -> dict:
    """Print every metric by name with its unit; return the result line."""
    print(
        f"workload {record['workload']}  seed {record['seed']}  streams "
        f"{record['streams']}  repeats {record['repeats']}  ops per repeat "
        f"{record['ops_per_repeat']}"
        f"  probe {record['probe_ms']:.3f} ms"
    )
    print("fingerprint " + json.dumps(record["fingerprint"], sort_keys=True))
    if record["trace"]:
        chosen = record["per_layer"]
        units = {name: per_layer_unit(name) for name in chosen}
        for item in record["predictions"]:
            verdict = "holds" if item["holds"] else "FAILS"
            print(f"prediction {verdict}: {item['prediction']}")
    else:
        chosen = record["end_to_end"]
        units = END_TO_END_UNITS
        wall = record["wall_clock"]
        print(f"  {'metric':<40} {'reference':>12}  {'wall clock':>12}  "
              "(reference: times on the probe's reference machine)")
        for name, value in {**chosen, **record["extra"]}.items():
            unit = units.get(name, "ms")
            print(f"  {name:<40} {value:12.4f}  {wall[name]:12.4f}  {unit}")
    if record["trace"]:
        for name, value in chosen.items():
            print(f"  {name:<48} {value:12.4f} {units[name]}")
    CACHE.mkdir(parents=True, exist_ok=True)
    with open(CACHE / "records.jsonl", "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {
        "correct": True,
        "attempted": record["attempted"],
        "failed": 0,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in chosen.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from streams import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    try:
        record = measure(
            WORKLOADS[args.workload], args.seed, args.seconds,
            bool(args.trace),
        )
    except CheckFailed as exc:
        print(f"correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(record)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
