"""Multi-core scale-out benchmark: sharded single-run execution.

Runs one seeded open-loop Memcached run three ways:

* **unsharded** -- ``workers=1``, the plain single-process path (a
  different modeled system, so its wall time is context, not the
  speedup baseline);
* **sharded serial** -- ``workers=W`` decomposition executed with
  ``processes=1``: every shard in this process, back to back;
* **sharded parallel** -- the *same* decomposition with one process
  per shard.

The speedup quoted is parallel vs serial placement of the identical
shard set, so it measures pure multi-core scaling with the simulated
system held fixed.  Two gates:

* **bit-identity** (always): sha256 over every merged telemetry
  column must match between placements, and the merged run metrics
  must compare equal;
* **speedup floor** (multi-core hosts only): parallel placement must
  beat the serial one by ``FLOOR_QUICK``/``FLOOR_FULL`` at 2 workers;
  single-core hosts print the honest ~1.0x and skip the floor.

Usage::

    python benchmarks/bench_parallel.py            # 200k requests
    python benchmarks/bench_parallel.py --quick    # 30k requests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

from repro.api import experiment  # noqa: E402
from repro.parallel.merge import (  # noqa: E402
    merge_columnar_payloads,
    merged_run_metrics,
)
from repro.parallel.runner import _execute_task  # noqa: E402
from repro.parallel.shard import shard_layout  # noqa: E402
from repro.telemetry.columns import COLUMN_FIELDS  # noqa: E402

QPS = 200_000.0
SEED = 7
#: Parallel-vs-serial placement floor at 2 workers on >= 2 cores.
FLOOR_QUICK = 1.3
FLOOR_FULL = 1.5


def build_plan(workers, num_requests):
    return (experiment("memcached").client("LP")
            .load(qps=QPS, num_requests=num_requests)
            .policy(runs=1, base_seed=SEED, workers=workers)
            .build())


def shard_tasks(plan):
    plan_dict = plan.to_dict()
    return [
        {"plan": plan_dict, "seed": SEED,
         "shard": {"index": shard.index, "workers": shard.workers,
                   "total_requests": shard.total_requests}}
        for shard in shard_layout(plan.load.num_requests,
                                  plan.policy.workers)]


def execute_placement(tasks, processes):
    started = time.perf_counter()
    if processes == 1:
        payloads = [_execute_task(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=processes) as pool:
            payloads = list(pool.map(_execute_task, tasks))
    wall = time.perf_counter() - started
    return payloads, wall


def columns_digest(payloads):
    digest = hashlib.sha256()
    for payload in payloads:
        for name in COLUMN_FIELDS:
            digest.update(np.ascontiguousarray(
                payload["columns"][name]).tobytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="30k requests instead of 200k")
    parser.add_argument("--requests", type=int, default=None,
                        help="request count for the run")
    parser.add_argument("--workers", type=int, default=2,
                        help="shard width W (default 2)")
    parser.add_argument("--json", default=None, metavar="FILE",
                        help="also write results as JSON")
    args = parser.parse_args(argv)
    num_requests = (args.requests if args.requests is not None
                    else (30_000 if args.quick else 200_000))
    workers = args.workers
    cores = os.cpu_count() or 1
    floor = FLOOR_QUICK if args.quick else FLOOR_FULL

    started = time.perf_counter()
    unsharded = build_plan(1, num_requests).run()
    unsharded_s = time.perf_counter() - started

    plan = build_plan(workers, num_requests)
    tasks = shard_tasks(plan)
    serial_payloads, serial_s = execute_placement(tasks, processes=1)
    parallel_payloads, parallel_s = execute_placement(
        tasks, processes=workers)

    serial_digest = columns_digest(serial_payloads)
    parallel_digest = columns_digest(parallel_payloads)
    bit_identical = serial_digest == parallel_digest
    serial_run = merged_run_metrics(serial_payloads, seed=SEED)
    parallel_run = merged_run_metrics(parallel_payloads, seed=SEED)
    merged = merge_columnar_payloads(serial_payloads)

    speedup = serial_s / parallel_s
    efficiency = speedup / workers
    events = sum(payload["events"] for payload in serial_payloads)
    rows = [
        ("unsharded (workers=1)", unsharded.runs[0], unsharded_s, None),
        (f"sharded W={workers}, serial", serial_run, serial_s, events),
        (f"sharded W={workers}, {workers} procs", parallel_run,
         parallel_s, events),
    ]
    print(f"Memcached @ {QPS:g} QPS, {num_requests} requests, "
          f"seed {SEED}, {cores} core(s)")
    print(f"{'path':<26}{'wall (s)':>10}{'events/s':>12}"
          f"{'avg (us)':>10}{'p99 (us)':>10}")
    for name, metrics, wall, path_events in rows:
        rate = "" if path_events is None else f"{path_events / wall:.0f}"
        print(f"{name:<26}{wall:>10.2f}{rate:>12}"
              f"{metrics.avg_us:>10.1f}{metrics.p99_us:>10.1f}")
    print(f"placement speedup: {speedup:.2f}x "
          f"({efficiency:.0%} efficiency over {workers} workers), "
          f"columns sha256 {'MATCH' if bit_identical else 'MISMATCH'}")

    assert bit_identical, (
        "parallel placement must be bit-identical to serial: "
        f"{serial_digest} != {parallel_digest}")
    assert serial_run == parallel_run, (
        "merged run metrics must compare equal across placements")
    assert merged.measured_count == serial_run.requests

    floor_enforced = cores >= 2 and workers >= 2
    if floor_enforced:
        assert speedup >= floor, (
            f"parallel placement speedup {speedup:.2f}x is below the "
            f"{floor:g}x floor on a {cores}-core host")
    else:
        print(f"speedup floor skipped ({cores} core(s) visible; "
              f"the {floor:g}x gate needs >= 2)")

    if args.json:
        payload = {
            "benchmark": "parallel",
            "qps": QPS,
            "requests": num_requests,
            "seed": SEED,
            "workers": workers,
            "cpu_count": cores,
            "note": "wall times and speedup measured on the host that "
                    "ran the benchmark (committed numbers come from a "
                    "1-core container, where parallel placement cannot "
                    "beat serial); the bit-identity gate is "
                    "hardware-independent",
            "rows": [
                {"path": name, "wall_s": round(wall, 4),
                 "events_per_s": (None if path_events is None else
                                  round(path_events / wall, 1)),
                 "avg_us": metrics.avg_us, "p99_us": metrics.p99_us}
                for name, metrics, wall, path_events in rows
            ],
            "placement_speedup_x": round(speedup, 3),
            "efficiency": round(efficiency, 3),
            "bit_identical": bit_identical,
            "columns_sha256": serial_digest,
            "speedup_floor_x": floor,
            "floor_enforced": floor_enforced,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
