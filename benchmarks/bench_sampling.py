"""Microbenchmark: Stream scalar draws vs ``numpy.random.Generator`` calls.

Times every draw shape the simulator uses on its request hot path --
exponential, lognormal, normal, uniform, and a mixed normal/uniform
sequence (a station's service and SMT draws on one stream) -- two
ways:

* **generator** -- one ``numpy.random.Generator`` method call per draw;
* **stream** -- the same draws through
  :class:`~repro.sim.sampling.Stream`, whose scalar draws call numpy's
  C samplers directly (derived draws are one expression over them);

and, for exponential and lognormal, the ``size=`` **vector** form
used for whole open-loop arrival schedules.

Two **block** rows time the single-kind draws the simulator serves
from blocks (:class:`~repro.sim.sampling.BlockStream`: the client and
shard links' normals, a cache's hit uniforms) against the plain
``Stream``'s scalar draw of the same kind, each a zero-argument bound
draw as the hot paths hold it.

Each row is also checked for bit-identity against the generator's own
sequence, so the benchmark doubles as a smoke test.  The process exits
non-zero when the stream is *slower* than the generator methods
(geometric-mean speedup < 1) or a block-served draw is slower than the
stream's scalar draw, which is the CI regression gate for the
sampling layer.

Usage::

    python benchmarks/bench_sampling.py            # 200k draws/row
    python benchmarks/bench_sampling.py --quick    # 20k draws (CI)
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    os.pardir, "src"))

import numpy as np  # noqa: E402

from repro.sim.sampling import (  # noqa: E402
    BlockStream,
    Stream,
    c_samplers_active,
)

SEED = 4242

#: (label, [(method, args), ...]) -- the scalar draw shapes used in
#: the tree; a row cycles through its draws in order.
ROWS = (
    ("exponential", [("exponential", (6.0,))]),
    ("lognormal", [("lognormal", (1.7917594692280558, 0.35))]),
    ("normal", [("normal", (1.0, 0.25))]),
    ("uniform", [("random", ())]),
    ("mixed", [("standard_normal", ()), ("random", ())]),
)

#: (label, block-served kind, the Generator method it equals).
BLOCK_ROWS = (
    ("block normal", "normal", "standard_normal"),
    ("block uniform", "uniform", "random"),
)


def _time_draws(source, draws, count: int) -> float:
    """Seconds for *count* draws cycling through *draws* on *source*."""
    calls = [(getattr(source, method), args) for method, args in draws]
    rounds = range(count // len(calls))
    started = time.perf_counter()
    for _ in rounds:
        for fn, args in calls:
            fn(*args)
    return time.perf_counter() - started


def bench_row(label: str, draws, count: int, repetitions: int) -> dict:
    """Best-of-N per-draw timings for one row, both ways."""
    generator_s = stream_s = float("inf")
    for _ in range(repetitions):
        generator_s = min(generator_s, _time_draws(
            np.random.default_rng(SEED), draws, count))
        stream_s = min(stream_s, _time_draws(
            Stream(np.random.default_rng(SEED)), draws, count))

    # Bit-identity: the stream's sequence must equal the generator's.
    generator = np.random.default_rng(SEED)
    stream = Stream(np.random.default_rng(SEED))
    check = min(count, 50_000) // len(draws)
    want = [float(getattr(generator, method)(*args))
            for _ in range(check) for method, args in draws]
    got = [getattr(stream, method)(*args)
           for _ in range(check) for method, args in draws]
    identical = got == want

    result = {
        "generator_us_per_draw": round(generator_s / count * 1e6, 4),
        "stream_us_per_draw": round(stream_s / count * 1e6, 4),
        "speedup": round(generator_s / stream_s, 3),
        "bit_identical": identical,
    }

    if label in ("exponential", "lognormal"):
        ((method, args),) = draws
        vector_s = float("inf")
        for _ in range(repetitions):
            stream = Stream(np.random.default_rng(SEED))
            started = time.perf_counter()
            getattr(stream, method)(*args, size=count)
            vector_s = min(vector_s, time.perf_counter() - started)
        vector = getattr(Stream(np.random.default_rng(SEED)), method)(
            *args, size=check)
        result["vector_us_per_draw"] = round(vector_s / count * 1e6, 4)
        result["vector_speedup"] = round(generator_s / vector_s, 1)
        result["bit_identical"] = identical and vector.tolist() == want

    return result


def bench_block_row(kind: str, method: str, count: int,
                    repetitions: int) -> dict:
    """Best-of-N per-draw timings of a block-served draw against the
    plain stream's scalar draw of the same kind."""
    attr = "draw_" + kind
    stream_s = block_s = float("inf")
    for _ in range(repetitions):
        stream_s = min(stream_s, _time_draws(
            Stream(np.random.default_rng(SEED)), [(attr, ())], count))
        block_s = min(block_s, _time_draws(
            BlockStream(np.random.default_rng(SEED), kind), [(attr, ())],
            count))

    # Bit-identity across refills: the generator's own scalar sequence.
    generator = np.random.default_rng(SEED)
    draw = getattr(BlockStream(np.random.default_rng(SEED), kind), attr)
    check = min(count, 50_000)
    want = [float(getattr(generator, method)()) for _ in range(check)]
    got = [draw() for _ in range(check)]
    return {
        "stream_us_per_draw": round(stream_s / count * 1e6, 4),
        "block_us_per_draw": round(block_s / count * 1e6, 4),
        "block_speedup": round(stream_s / block_s, 3),
        "bit_identical": got == want,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="20k draws per row (CI smoke)")
    parser.add_argument("--draws", type=int, default=None)
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--json", default="BENCH_sampling.json",
                        help="output path (default ./BENCH_sampling.json)")
    args = parser.parse_args(argv)
    count = args.draws or (20_000 if args.quick else 200_000)

    c_samplers = c_samplers_active()
    print(f"sampling microbenchmark, {count} draws per row, best of "
          f"{args.repetitions} (numpy's C samplers: "
          f"{'on' if c_samplers else 'off, bound-method fallback'})")
    print(f"  {'row':<14}{'generator':>11}{'stream':>10}"
          f"{'speedup':>9}{'size=':>10}  identical")

    results = {}
    speedups = []
    all_identical = True
    for label, draws in ROWS:
        row = bench_row(label, draws, count, args.repetitions)
        results[label] = row
        speedups.append(row["speedup"])
        all_identical &= row["bit_identical"]
        vector = (f"{row['vector_us_per_draw']:>8.3f}us"
                  if "vector_us_per_draw" in row else f"{'-':>10}")
        print(f"  {label:<14}{row['generator_us_per_draw']:>9.3f}us"
              f"{row['stream_us_per_draw']:>8.3f}us"
              f"{row['speedup']:>8.2f}x{vector}  {row['bit_identical']}")

    geomean = math.exp(sum(math.log(s) for s in speedups) / len(speedups))
    print(f"  geometric-mean stream speedup: {geomean:.2f}x "
          f"(bit-identical: {all_identical})")

    print(f"  {'row':<14}{'stream':>11}{'block':>10}{'speedup':>9}"
          f"  identical")
    block_results = {}
    for label, kind, method in BLOCK_ROWS:
        row = bench_block_row(kind, method, count, args.repetitions)
        block_results[label] = row
        all_identical &= row["bit_identical"]
        print(f"  {label:<14}{row['stream_us_per_draw']:>9.3f}us"
              f"{row['block_us_per_draw']:>8.3f}us"
              f"{row['block_speedup']:>8.2f}x  {row['bit_identical']}")
    slower = sorted(label for label, row in block_results.items()
                    if row["block_speedup"] < 1.0)

    payload = {
        "benchmark": "sampling",
        "draws_per_row": count,
        "repetitions": args.repetitions,
        "quick": bool(args.quick),
        "c_samplers": c_samplers,
        "rows": results,
        "block_rows": block_results,
        "geomean_speedup": round(geomean, 3),
        "bit_identical": all_identical,
    }
    with open(args.json, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  wrote {args.json}")

    if not all_identical:
        print("FAIL: stream sequence diverged from the generator's",
              file=sys.stderr)
        return 1
    if geomean < 1.0:
        print(f"FAIL: stream slower than the generator methods "
              f"({geomean:.2f}x < 1.0x)", file=sys.stderr)
        return 1
    if slower:
        print(f"FAIL: block-served draws slower than the stream's "
              f"scalar draw: {', '.join(slower)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
