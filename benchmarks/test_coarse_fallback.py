"""Measuring the fine-vs-coarse crossover for subscription maintenance.

Per event the registry has two regimes:

- **fine** — scan every edge record against every subscription's
  per-step patterns (cost ∝ |edges| × |patterns|, rewarded with skips
  and suffix restarts);
- **coarse** — skip the scan and fully re-evaluate every subscription
  (cost independent of |edges|).

For small events fine wins by orders of magnitude (that is the whole
subscription story); past some edge-list size the scan alone costs more
than re-evaluating, so the registry degrades such events to coarse —
the ROADMAP's "cost-based fallback", ``SubscriptionRegistry.coarse_threshold``.

This benchmark measures both regimes of the registry's batched
decision pass (:meth:`SubscriptionRegistry.apply_batched`, the commit
pipeline's maintain phase) against synthetic events of growing size
(non-matching edges), records the measured crossover in
``BENCH_index.json``,
and sanity-checks that the shipped default
(:data:`repro.subscribe.engine.DEFAULT_COARSE_THRESHOLD`) is within an
order of magnitude of the measurement — thresholds should be measured,
not guessed, but they also should not flap per machine.

The batched pass probes a pattern index per edge instead of scanning
every pattern of every subscription, so its fine regime is far cheaper
per edge than the per-subscription scan it replaced: the crossover
moved from ≈256–1024 edges (per-subscription scan) to ≈4096–16384
(batched pass) at 16 standing queries, hence the two largest sizes.
"""

from __future__ import annotations

import time

import pytest
from conftest import record_bench

from repro.service import ViewConfig, open_view
from repro.subscribe.delta import EdgeRecord, ViewEvent
from repro.subscribe.engine import DEFAULT_COARSE_THRESHOLD
from repro.workloads import make_query_set
from repro.workloads.synthetic import SyntheticConfig, build_synthetic

N_QUERIES = 16
SIZES = (4, 16, 64, 256, 1024, 4096, 16384)
REPEATS = 5


def _service():
    dataset = build_synthetic(SyntheticConfig(n_c=240, seed=7))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    for query in make_query_set(dataset, count=N_QUERIES):
        service.subscribe(query)
    return service


def _event(service, n_edges: int) -> ViewEvent:
    """A fine event of ``n_edges`` worst-case (never-matching) edges.

    Unmatched edge types give the batched pass nothing to prune on
    cheaply: every edge is probed against the pattern index and the
    node-watch map, and the always-candidate (wildcard) subscriptions
    scan it against their patterns.  The generation matches the current version so the
    handled subscriptions stay consistent for the next measurement.
    """
    return ViewEvent(
        generation=service.updater._version,
        edges=[
            EdgeRecord("insert", "zz_parent", "zz_child", 0, i)
            for i in range(n_edges)
        ],
        reason="synthetic",
    )


def _measure_regime(service, n_edges: int, coarse: bool) -> float:
    registry = service.subscriptions
    registry.coarse_threshold = 0 if coarse else 10**9
    best = float("inf")
    for _ in range(REPEATS):
        event = _event(service, n_edges)
        start = time.perf_counter()
        registry.apply_batched(event)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.perf
def test_crossover_measured_and_recorded():
    """Wall-clock regimes compared head to head (flaky on noisy shared
    runners, hence the perf marker; the measured records ship in
    ``BENCH_index.json``)."""
    service = _service()
    # Warm both regimes first: first-call costs would otherwise land on
    # whichever regime the smallest size measures first.
    _measure_regime(service, SIZES[0], coarse=False)
    _measure_regime(service, SIZES[0], coarse=True)
    crossover = None
    for n_edges in SIZES:
        fine = _measure_regime(service, n_edges, coarse=False)
        coarse = _measure_regime(service, n_edges, coarse=True)
        record_bench(
            "coarse_fallback", "auto", f"fine_scan:{n_edges}", fine,
            queries=N_QUERIES,
        )
        record_bench(
            "coarse_fallback", "auto", f"coarse_reeval:{n_edges}", coarse,
            queries=N_QUERIES,
        )
        # The crossover is where fine starts losing *for good*: a noise
        # flip at one small size followed by fine winning again resets it.
        if fine > coarse:
            crossover = crossover or n_edges
        else:
            crossover = None
    # Scanning a huge never-matching event must eventually lose to one
    # re-evaluation per subscription — otherwise the fallback is moot.
    assert crossover is not None, (
        f"fine scan never crossed coarse re-eval up to {SIZES[-1]} edges"
    )
    record_bench(
        "coarse_fallback", "auto", "crossover_edges", 0.0,
        crossover=crossover, default_threshold=DEFAULT_COARSE_THRESHOLD,
        queries=N_QUERIES,
    )
    # The shipped default sits within an order of magnitude of the
    # measured crossover (machine-dependent, so keep the band wide).
    assert crossover / 16 <= DEFAULT_COARSE_THRESHOLD <= crossover * 16, (
        f"DEFAULT_COARSE_THRESHOLD={DEFAULT_COARSE_THRESHOLD} is far from "
        f"the measured crossover {crossover}"
    )


def test_fallback_keeps_results_correct_at_scale():
    """A real bulk batch big enough to trip the default threshold still
    leaves every subscription equal to a fresh evaluation."""
    from repro.workloads import make_workload

    dataset = build_synthetic(SyntheticConfig(n_c=240, seed=11))
    service = open_view(
        dataset.atg,
        dataset.db,
        config=ViewConfig(side_effects="propagate", strict=False),
    )
    service.subscriptions.coarse_threshold = 8
    subs = [service.subscribe(q) for q in make_query_set(dataset, count=8)]
    ops = make_workload(dataset, "delete", "W2", count=6)
    service.apply(ops)  # one batch: a wide coalesced flush event
    stats = service.subscriptions.stats()
    for sub in subs:
        assert sub.result() == tuple(
            sorted(service.xpath(sub.path).targets)
        )
    # The coalesced flush event exceeds the configured threshold, so the
    # fallback must actually have engaged — for every subscription.
    assert stats["coarse_fallbacks"] == len(subs), stats
