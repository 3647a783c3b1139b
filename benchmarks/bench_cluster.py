"""Cluster-scale benchmark: single server vs. a load-balanced fleet.

Runs the same seeded open-loop Memcached workload two ways:

* **single server** -- the paper's one-box testbed at the base load;
* **4-node cluster** -- the same aggregate *per-node* load through a
  power-of-two-choices :class:`~repro.cluster.LoadBalancer` fronting
  four replicated stations (4x the request count, 4x the offered
  QPS), i.e. four single-server testbeds' worth of simulated work in
  one run.

The interesting numbers are events/s throughput (how much simulated
cluster the engine sustains per wall-clock second -- cluster
dispatch adds only an O(1) LB decision per request) and the
per-node utilization spread (LB fairness).  Both runs are asserted
deterministic: a second seeded invocation must reproduce the metrics
bit-for-bit.

Usage::

    python benchmarks/bench_cluster.py            # 20k base requests
    python benchmarks/bench_cluster.py --quick    # 2k base requests
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
from repro.workloads.registry import workload_by_name  # noqa: E402

BASE_QPS = 200_000.0
NODES = 4
SEED = 7


def run_topology(cluster, qps, num_requests):
    started = time.perf_counter()
    testbed = workload_by_name("memcached").build_testbed(
        seed=SEED, client_config=LP_CLIENT,
        server_config=SERVER_BASELINE, qps=qps,
        num_requests=num_requests, cluster=cluster)
    metrics = testbed.run()
    elapsed = time.perf_counter() - started
    events = testbed.sim.events_processed
    return metrics, elapsed, events


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="2k base requests instead of 20k")
    parser.add_argument("--requests", type=int, default=None,
                        help="base (single-server) request count")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write results as JSON")
    args = parser.parse_args(argv)
    base_requests = (args.requests if args.requests is not None
                     else (2_000 if args.quick else 20_000))

    single_spec = ClusterSpec()
    cluster_spec = ClusterSpec(nodes=NODES, lb_policy="power-of-two")

    single, single_s, single_events = run_topology(
        single_spec, BASE_QPS, base_requests)
    cluster, cluster_s, cluster_events = run_topology(
        cluster_spec, BASE_QPS * NODES, base_requests * NODES)

    replay, _, _ = run_topology(
        cluster_spec, BASE_QPS * NODES, base_requests * NODES)
    assert replay == cluster, "cluster runs must be deterministic"

    rows = [
        ("single server", base_requests, single_s,
         single_events / single_s, single.p99_us, ()),
        (f"{NODES}-node p2c cluster", base_requests * NODES,
         cluster_s, cluster_events / cluster_s, cluster.p99_us,
         cluster.node_utilizations),
    ]
    print(f"Memcached @ {BASE_QPS:g} QPS/node, seed {SEED}")
    print(f"{'topology':<22}{'requests':>10}{'wall (s)':>10}"
          f"{'events/s':>12}{'p99 (us)':>10}")
    for name, requests, wall, rate, p99, _ in rows:
        print(f"{name:<22}{requests:>10}{wall:>10.2f}"
              f"{rate:>12.0f}{p99:>10.1f}")
    utils = cluster.node_utilizations
    print(f"per-node utilization: "
          f"{', '.join(f'{u:.3f}' for u in utils)} "
          f"(spread {max(utils) - min(utils):.3f})")

    per_request_single = single_s / base_requests
    per_request_cluster = cluster_s / (base_requests * NODES)
    print(f"per-request cost: single {per_request_single * 1e6:.1f} us, "
          f"cluster {per_request_cluster * 1e6:.1f} us "
          f"({per_request_cluster / per_request_single:.2f}x)")

    if args.json:
        payload = {
            "base_qps": BASE_QPS,
            "nodes": NODES,
            "seed": SEED,
            "rows": [
                {"topology": name, "requests": requests,
                 "wall_s": wall, "events_per_s": rate,
                 "p99_us": p99,
                 "node_utilizations": list(node_utils)}
                for name, requests, wall, rate, p99, node_utils
                in rows
            ],
            "per_request_overhead_x":
                per_request_cluster / per_request_single,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
