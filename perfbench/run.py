"""The repository benchmark: one command, three paper-shaped workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload memcached-single --seed 0 \\
        --seconds 20 --trace 0

Without ``--workload`` it runs every workload in turn.

Each run starts fresh interpreters (``child.py``) against the
checkout's own ``src/``: a warm-up that fills the bytecode cache,
several set-up samples, and one measurement (``--trace 0``) or one
traced run (``--trace 1``).  A host-speed sampler (``calibrate.py``)
runs beside them, and every host time is reported at its reference
speed.  It prints every metric with its unit, appends a result row
with provenance to ``.perfbench-out/results.jsonl`` and, as its last
line, one JSON object::

    {"correct": true, "attempted": 9, "failed": 0, "metrics": {...}}

It exits 1 when any output fails its checks and 2 when the checkout
holds no program to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from typing import Dict, List, Optional

from calibrate import Sampler

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("memcached-single", "memcached-graph", "smt-campaign")
#: Set-up samples per run (the reported ``setup_s`` is their median).
SETUPS = {"full": 4, "tiny": 1}
#: Seconds a single child may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0
#: Span metrics named with these suffixes are host times.
TIME_SUFFIXES = ("_s", "us_per_event")


class ChildError(RuntimeError):
    """A child interpreter failed or printed no result."""


def run_child(mode: str, workload: str, args: argparse.Namespace,
              scratch: str) -> Dict:
    """Run ``child.py`` in its own process group; return its result.

    On a timeout the whole group (pool workers included) is killed
    and reaped before the error propagates.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    command = [sys.executable, os.path.join(HERE, "child.py"), mode,
               "--workload", workload, "--seed", str(args.seed),
               "--scale", args.scale, "--seconds", str(args.seconds),
               "--scratch", scratch]
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise ChildError(f"{mode} child exceeded {CHILD_TIMEOUT_S:g}s")
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise ChildError(f"{mode} child exited {process.returncode}")
    return json.loads(lines[-1])


def source_digest() -> str:
    """sha256 over the checkout's ``src/`` Python files: a commit
    stand-in that also works in a checkout that is not a git repo."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    try:
        found = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return found.stdout.strip() if found.returncode == 0 else None


def walls(sampler: Sampler, intervals: List[List[float]]) -> List[float]:
    """Each interval's length at the reference speed."""
    return [(end - start) * sampler.speed(start, end)
            for start, end in intervals]


def setup_times(sampler: Sampler, setups: List[Dict]) -> Dict[str, float]:
    """Median of each set-up time over the set-up interpreters, each at
    the reference speed of its own interval."""
    scaled = [{name: value * sampler.speed(*s["setup"]["interval"])
               for name, value in s["setup"].items() if name != "interval"}
              for s in setups]
    return {name: statistics.median(s[name] for s in scaled)
            for name in scaled[0]}


def end_to_end(sampler: Sampler, setups: List[Dict], child: Dict
               ) -> Dict[str, float]:
    wall = statistics.median(walls(sampler, child["answers"]))
    return {
        "setup_s": setup_times(sampler, setups)["setup_s"],
        "wall_s": wall,
        "sim_req_per_s": child["requests"] / wall,
        "peak_rss_mb": child["peak_rss_kb"] / 1024.0,
    }


def per_layer(sampler: Sampler, setups: List[Dict], child: Dict
              ) -> Dict[str, float]:
    setup = setup_times(sampler, setups)
    metrics = {"import.repro_s": setup["import_s"],
               "api.compile_s": setup["compile_s"]}
    spans = [{name: value * sampler.speed(*interval)
              if name.endswith(TIME_SUFFIXES) else value
              for name, value in answer_spans.items()}
             for answer_spans, interval in zip(child["spans"],
                                               child["traced"])]
    metrics.update({name: statistics.median(s[name] for s in spans)
                    for name in spans[0]})
    metrics.update(child["counters"])
    metrics.update(child["profile"]["metrics"])
    metrics["trace.overhead_frac"] = (
        statistics.median(walls(sampler, child["traced"]))
        / statistics.median(walls(sampler, child["untraced"])) - 1.0)
    metrics["host.speed"] = sampler.speed(child["untraced"][0][0],
                                          child["traced"][-1][1])
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run benchmark workloads and print their metrics.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: each in turn)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=tuple(SETUPS), default="full",
                        help="'tiny' exercises every path in seconds")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program to measure: {ROOT}/src/repro is "
              f"missing", file=sys.stderr)
        return 2
    codes = [run_workload(workload, args)
             for workload in ([args.workload] if args.workload
                              else WORKLOADS)]
    return max(codes)


def run_workload(workload: str, args: argparse.Namespace) -> int:
    """Measure one workload; print and record its result."""
    out_dir = os.path.join(ROOT, ".perfbench-out")
    scratch = os.path.join(out_dir, "tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    sampler = Sampler(os.path.join(scratch, "speed.txt"))
    try:
        if args.scale == "full":
            # Fills the bytecode cache.
            run_child("setup", workload, args, scratch)
        setups = [run_child("setup", workload, args, scratch)
                  for _ in range(SETUPS[args.scale])]
        child = run_child("trace" if args.trace else "measure", workload,
                          args, scratch)
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        sampler.stop()
        shutil.rmtree(scratch, ignore_errors=True)
    if not child.get("answers", child.get("traced")):
        print("perfbench: no answer completed: "
              + "; ".join(child["violations"]), file=sys.stderr)
        return 1

    # BENCHMARK.json names every reported metric and its unit.
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    measured = (per_layer if args.trace else end_to_end)(sampler, setups,
                                                          child)
    metrics = {m["name"]: measured[m["name"]] for m in declared}
    units = {m["name"]: m["unit"] for m in declared}
    correct = not child["violations"]
    attempted, failed = child["attempted"], child["failed"]

    print(f"perfbench {workload} seed={args.seed} scale={args.scale} "
          f"trace={args.trace}")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):>16.6g} "
          f"ratio ({failed}/{attempted} operations)")
    print(f"  {'reference digests':34s} "
          f"{'pinned' if child['pinned'] else 'first answer':>16s}")
    if args.trace:
        for fact, pair in child["profile"]["seed_facts"].items():
            print(f"  seed fact {fact:24s} roadmap {pair['roadmap']:.0%}"
                  f"  measured {pair['measured']:.1%}")
    for violation in child["violations"][:20]:
        print(f"  VIOLATION {violation}")

    row = {
        "workload": workload,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "child": child,
        "setups": setups,
        "speed_chunks": sampler.chunks,
        "provenance": {
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "cpu_count": os.cpu_count(),
            **child["versions"],
            "seed": args.seed,
            "scale": args.scale,
            "seconds": args.seconds,
            **child["policy"],
        },
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps(row) + "\n")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
