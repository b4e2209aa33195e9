"""The benchmark's workloads and their generated, cached op streams.

Streams come from the repository's own generator
(``python -m repro.bench.workload_gen``), run in a child process: the
generator replays every op through a shadow updater, which costs about
as much as applying the stream, so it must stay out of the set-up time,
the timed loop and this process's peak RSS.  Each (workload, seed)
stream is generated once per checkout and reused by every repeat; the
cached header's ``params`` must equal the spec that asked for it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

from repro.bench.workload_gen import WorkloadSpec, parse_header_line
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

#: The dataset every workload runs on (≈730 nodes / 977 edges), in the
#: generator's ``synthetic:<n_c>`` naming.
N_C = 360
DATASET = f"synthetic:{N_C}"

#: The child process gets this long to generate one stream.
GENERATE_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generator pattern plus service shape."""

    name: str
    pattern: str
    ops: int
    subscriptions: int = 0
    read_ratio: float = 0.0
    durable: bool = False
    """Open a pull changefeed consumer and a WAL (default fsync)."""
    streams: int = 1
    """Independent streams per run, each replayed on its own views."""

    @property
    def reads_per_write(self) -> int:
        """``service.xpath`` reads issued after each write."""
        return round(self.read_ratio / (1.0 - self.read_ratio))

    def stream_seeds(self, seed: int) -> list[int]:
        """The generator seeds of one run's streams."""
        return [seed * self.streams + index for index in range(self.streams)]

    def spec(self, seed: int) -> WorkloadSpec:
        return WorkloadSpec(
            workload=DATASET,
            ops=self.ops,
            seed=seed,
            pattern=self.pattern,
            key_skew=0.0,
            read_ratio=self.read_ratio,
            subscriptions=self.subscriptions,
        )


#: Why each workload is here is recorded in ``perfbench/NOTES.md``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("churn", pattern="churn", ops=200),
        # How fast one stream densifies the DAG varies with its seed by
        # ±7% in insert p50; two streams per run halve that spread.
        Workload("dense_dag", pattern="dense_dag", ops=300, streams=2),
        Workload(
            "serve", pattern="churn", ops=60, subscriptions=16,
            read_ratio=0.8, durable=True,
        ),
    )
}


def build_dataset():
    """The base database and view definition the streams target."""
    return build_synthetic(SyntheticConfig(n_c=N_C))


def load_stream(
    src: Path, cache: Path, workload: Workload, seed: int
) -> tuple[dict, list[dict]]:
    """The ``(header, ops)`` of ``workload`` at ``seed``, generating the
    stream into ``cache`` on first use."""
    spec = workload.spec(seed)
    params = json.dumps(spec.to_dict(), sort_keys=True)
    digest = hashlib.sha256(params.encode()).hexdigest()[:16]
    path = cache / "streams" / f"{workload.pattern}-{seed}-{digest}.jsonl"
    if not path.exists():
        _generate(src, spec, path)
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    header = parse_header_line(lines[0]) if lines else None
    if header is None or header.get("params") != spec.to_dict():
        raise ValueError(f"cached stream {path} does not match {spec}")
    ops = [json.loads(line) for line in lines[1:]]
    if len(ops) != spec.ops:
        raise ValueError(
            f"cached stream {path} holds {len(ops)} ops, expected {spec.ops}"
        )
    return header, ops


def _generate(src: Path, spec: WorkloadSpec, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(f".{os.getpid()}.tmp")
    argv = [
        sys.executable, "-m", "repro.bench.workload_gen",
        "--workload", spec.workload,
        "--ops", str(spec.ops),
        "--seed", str(spec.seed),
        "--pattern", spec.pattern,
        "--key-skew", str(spec.key_skew),
        "--read-ratio", str(spec.read_ratio),
        "--subscriptions", str(spec.subscriptions),
        "--out", str(partial),
    ]
    env = dict(os.environ, PYTHONPATH=str(src))
    try:
        proc = subprocess.run(
            argv, env=env, timeout=GENERATE_TIMEOUT_S,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"stream generation failed ({proc.returncode}): "
                f"{proc.stderr.strip()}"
            )
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)
