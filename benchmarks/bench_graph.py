"""Service-graph benchmark: flat leaf tier vs. the full 3-tier DAG.

Runs the same seeded open-loop Memcached workload two ways:

* **flat shards** -- the ``memcached-cached`` preset's leaf tier on
  its own: 8 shards, full fanout, no cache, no resilience;
* **service graph** -- the full preset: frontend -> 80%-hit cache ->
  the same 8 shards behind a hedged dispatcher, plus a diurnal
  variant of the same graph.

The interesting numbers are events/s throughput and the per-event
wall-clock overhead the graph machinery adds over the flat
deployment (frontend hop + cache lookup + dispatch bookkeeping).
Each topology runs once untimed first, which absorbs the process's
first-call warm-up and is the seeded replay the timed run must
reproduce bit-for-bit.  The per-event overhead is asserted under a
ceiling so graph composition never silently regresses the hot path;
the per-request ratio is reported too, but it cannot gate: the flat
run fans every request out to all 8 shards while the cache answers
most graph requests, so the graph does less than half the flat
run's events per request.

Usage::

    python benchmarks/bench_graph.py            # 20k requests
    python benchmarks/bench_graph.py --quick    # 2k requests
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.cluster import ClusterSpec  # noqa: E402
from repro.config.presets import LP_CLIENT, SERVER_BASELINE  # noqa: E402
from repro.graph import graph_preset  # noqa: E402
from repro.loadgen.interarrival import ArrivalSpec  # noqa: E402
from repro.workloads.registry import workload_by_name  # noqa: E402

QPS = 100_000.0
SEED = 7
# Graph dispatch must stay within this factor of the flat deployment
# per simulated event (a graph event does more on average: an extra
# tier, a cache decision, resilience bookkeeping).
OVERHEAD_CEILING = 4.0


def run_topology(num_requests, **topology):
    started = time.perf_counter()
    testbed = workload_by_name("memcached").build_testbed(
        seed=SEED, client_config=LP_CLIENT,
        server_config=SERVER_BASELINE, qps=QPS,
        num_requests=num_requests, **topology)
    metrics = testbed.run()
    elapsed = time.perf_counter() - started
    return metrics, elapsed, testbed.sim.events_processed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2k requests instead of 20k")
    parser.add_argument("--requests", type=int, default=None,
                        help="request count per topology")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write results as JSON")
    args = parser.parse_args(argv)
    num_requests = (args.requests if args.requests is not None
                    else (2_000 if args.quick else 20_000))

    diurnal = ArrivalSpec(shape="diurnal", period_us=20_000.0,
                          amplitude=0.5)
    graph = graph_preset("memcached-cached")
    topologies = [
        ("flat 8 shards", {"cluster": ClusterSpec(shards=8)}),
        ("frontend>cache>shards", {"graph": graph}),
        ("  ... diurnal load", {"graph": graph, "arrival": diurnal}),
    ]
    # Untimed first pass: the warm-up, and the replay to check against.
    replays = [run_topology(num_requests, **topology)[0]
               for _, topology in topologies]
    rows = []
    for (name, topology), replay in zip(topologies, replays):
        metrics, wall, events = run_topology(num_requests, **topology)
        assert metrics == replay, \
            f"{name.strip()} runs must be deterministic"
        rows.append((name, metrics, wall, events))
    (_, _, flat_s, flat_events), (_, _, graph_s, graph_events) = rows[:2]

    print(f"Memcached @ {QPS:g} QPS, {num_requests} requests, "
          f"seed {SEED}")
    print(f"{'topology':<24}{'wall (s)':>10}{'events/s':>12}"
          f"{'avg (us)':>10}{'p99 (us)':>10}")
    for name, metrics, wall, events in rows:
        print(f"{name:<24}{wall:>10.2f}{events / wall:>12.0f}"
              f"{metrics.avg_us:>10.1f}{metrics.p99_us:>10.1f}")

    per_request_flat = flat_s / num_requests
    per_request_graph = graph_s / num_requests
    per_event_flat = flat_s / flat_events
    per_event_graph = graph_s / graph_events
    request_overhead = per_request_graph / per_request_flat
    overhead = per_event_graph / per_event_flat
    print(f"per-request cost: flat {per_request_flat * 1e6:.1f} us, "
          f"graph {per_request_graph * 1e6:.1f} us "
          f"({request_overhead:.2f}x)")
    print(f"per-event cost: flat {per_event_flat * 1e6:.2f} us, "
          f"graph {per_event_graph * 1e6:.2f} us ({overhead:.2f}x)")
    assert overhead < OVERHEAD_CEILING, (
        f"graph per-event overhead {overhead:.2f}x exceeds the "
        f"{OVERHEAD_CEILING:g}x ceiling over the flat deployment")

    if args.json:
        payload = {
            "qps": QPS,
            "requests": num_requests,
            "seed": SEED,
            "rows": [
                {"topology": name, "wall_s": wall,
                 "events_per_s": events / wall,
                 "avg_us": metrics.avg_us, "p99_us": metrics.p99_us}
                for name, metrics, wall, events in rows
            ],
            "per_request_overhead_x": request_overhead,
            "per_event_overhead_x": overhead,
            "overhead_ceiling_x": OVERHEAD_CEILING,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
