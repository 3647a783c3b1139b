"""One fresh interpreter of the benchmark: set-up, measurement or trace.

``run.py`` starts this script once per set-up sample and once for the
measurement; it prints one JSON object as its last line of output::

    python3 perfbench/child.py setup   --workload W --seed S --scale full
    python3 perfbench/child.py measure --workload W --seed S --scale full \\
        --seconds T --scratch DIR
    python3 perfbench/child.py trace   ... (same arguments as measure)

The ``repro`` import is the first thing timed, before this file's own
imports, because it is the first cost a user of the program pays.
Every time is read from the monotonic clock, which the host-speed
sampler (``calibrate.py``) stamps its chunks with: the result reports
measured times with the interval each was measured over, and
``run.py`` converts them to the reference speed.
"""

import time

_STARTED = time.monotonic()
import repro  # noqa: E402
import repro.campaign  # noqa: E402,F401
import repro.core.provisioning  # noqa: E402,F401
import repro.parallel  # noqa: E402,F401

_IMPORTED = time.monotonic()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from layers import LAYERS, OTHER, SpanLog, profiled, traced  # noqa: E402
from workloads import PROCESSES, WORKLOADS, Answer, counters  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__))
#: Fewest answers a measurement or trace takes, however long they are.
MIN_ANSWERS = 3
MIN_TRACE_PAIRS = 2


def pinned_reference(workload: str, seed: int, scale: str
                     ) -> Optional[Dict[str, Any]]:
    """The committed digests for this run, if any are pinned."""
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    if scale != pinned["scale"] or seed != pinned["seed"]:
        return None
    return pinned["workloads"].get(workload)


class Judge:
    """Counts failed operations against reference digests.

    The reference is the pinned one when the run uses the pinned seed
    and scale, else the run's first answer: every later answer,
    traced or profiled, must reproduce it bit for bit.
    """

    def __init__(self, reference: Optional[Dict[str, Any]]) -> None:
        self.reference = reference
        self.pinned = reference is not None
        self.attempted = 0
        self.failed = 0
        self.violations: List[str] = []

    def crashed(self, operations: int, error: BaseException) -> None:
        self.attempted += operations
        self.failed += operations
        self.violations.append(f"answer raised {type(error).__name__}: "
                               f"{error}")

    def check(self, answer: Answer, what: str) -> None:
        if self.reference is None:
            self.reference = {"ops": answer.ops,
                              "capacity": answer.capacity}
        expected = self.reference["ops"]
        if len(answer.ops) != len(expected):
            self.violations.append(
                f"{what}: {len(answer.ops)} operations, "
                f"expected {len(expected)}")
        for index, (digest, problems) in enumerate(
                zip(answer.ops, answer.violations)):
            self.attempted += 1
            bad = list(problems)
            if index < len(expected) and digest != expected[index]:
                bad.append(f"digest {digest} != {expected[index]}")
            if bad:
                self.failed += 1
                self.violations.append(
                    f"{what} operation {index}: {'; '.join(bad)}")
        if answer.capacity != self.reference.get("capacity"):
            self.violations.append(
                f"{what}: capacity digest {answer.capacity} != "
                f"{self.reference.get('capacity')}")

    def report(self) -> Dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed,
                "violations": self.violations,
                "digests": self.reference, "pinned": self.pinned}


def setup(workload: Any, seed: int, scale: str) -> Tuple[Any, Dict]:
    """Compile the workload and build its first testbed, timed."""
    started = time.monotonic()
    compiled = workload.compile(seed, scale)
    compiled_at = time.monotonic()
    workload.first_testbed(compiled)
    built_at = time.monotonic()
    import_s = _IMPORTED - _STARTED
    return compiled, {
        "import_s": import_s,
        "compile_s": compiled_at - started,
        "build_s": built_at - compiled_at,
        "setup_s": import_s + built_at - started,
        "interval": [_STARTED, built_at],
    }


class Clock:
    """Runs answers and records the interval each one took."""

    def __init__(self) -> None:
        self.intervals: List[Tuple[float, float]] = []

    def answer(self, workload: Any, compiled: Any, scratch: str,
               **kwargs: Any) -> Answer:
        started = time.monotonic()
        answer = workload.answer(compiled, scratch, **kwargs)
        self.intervals.append((started, time.monotonic()))
        return answer


def peak_rss_kb() -> int:
    """Peak RSS of this process or of any pool worker it waited for."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def measure(workload: Any, compiled: Any, judge: Judge, seconds: float,
            scratch: str) -> Dict[str, Any]:
    """Answer repeatedly for *seconds* (at least MIN_ANSWERS times)."""
    clock = Clock()
    requests = 0
    deadline = time.monotonic() + seconds
    while (len(clock.intervals) < MIN_ANSWERS
           or time.monotonic() < deadline):
        try:
            answer = clock.answer(workload, compiled, scratch)
        except Exception as exc:  # noqa: BLE001 -- counted as failed
            judge.crashed(workload.operations(compiled), exc)
            break
        judge.check(answer, f"answer {len(clock.intervals) - 1}")
        requests = answer.requests
    return {"answers": clock.intervals, "requests": requests,
            "peak_rss_kb": peak_rss_kb()}


def span_metrics(values: Dict[str, List[float]], answer: Answer,
                 wall: float) -> Dict[str, float]:
    """One traced answer's spans: totals in seconds for the layers
    every workload has, shares of *wall* for the ones only some
    workloads have (zero elsewhere)."""
    def total(name: str) -> float:
        return sum(values.get(name, ()))

    shards = values.get("parallel.shard_s", [])
    events = total("sim.events")
    elapsed = [e for _, e, _ in answer.outcomes]
    waits = [w for _, _, w in answer.outcomes]
    return {
        "core.build_s": total("core.build_s"),
        "core.builds": float(len(values.get("core.build_s", ()))),
        "loadgen.start_s": total("loadgen.start_s"),
        "sim.run_s": total("sim.run_s"),
        "sim.events": events,
        "sim.us_per_event": (1e6 * total("sim.run_s") / events
                             if events else 0.0),
        "telemetry.summarize_s": total("telemetry.summarize_s"),
        "parallel.shard_max_share": max(shards, default=0.0) / wall,
        "parallel.shard_mean_share": (statistics.mean(shards) / wall
                                      if shards else 0.0),
        "parallel.merge_share": total("parallel.merge_s") / wall,
        "campaign.cond_p50_share": (statistics.median(elapsed) / wall
                                    if elapsed else 0.0),
        "campaign.queue_wait_p50_share": (statistics.median(waits) / wall
                                          if waits else 0.0),
        "campaign.busy_frac": sum(elapsed) / (wall * PROCESSES),
        "campaign.persist_share": total("campaign.persist_s") / wall,
        "campaign.failed": float(sum(status == "failed"
                                     for status, _, _ in answer.outcomes)),
        "analysis.capacity_share": total("analysis.capacity_s") / wall,
    }


def profile_metrics(grouped: Dict[str, Dict[str, float]]
                    ) -> Dict[str, Any]:
    """Self-time shares and call counts by layer, plus the ROADMAP's
    seed facts re-measured from the same profile."""
    self_s = grouped["self"]
    whole = sum(self_s.values()) or 1.0
    metrics = {f"self.{layer}": self_s[layer] / whole
               for layer in LAYERS + (OTHER,)}
    metrics.update({f"calls.{layer}": grouped["calls"][layer]
                    for layer in LAYERS})
    modules = grouped["modules"]
    top = sorted(modules.items(), key=lambda item: -item[1])[:15]
    return {
        "metrics": metrics,
        "profiled_self_s": whole,
        "top_modules": {name: seconds / whole for name, seconds in top},
        "seed_facts": {
            "engine+heap": {"roadmap": 0.25,
                            "measured": metrics["self.sim.engine"]},
            "server models": {"roadmap": 0.31,
                              "measured": metrics["self.hardware"]
                              + metrics["self.server"]},
            "loadgen/client": {"roadmap": 0.12,
                               "measured": metrics["self.loadgen"]},
            "ETC synthesis": {"roadmap": 0.08,
                              "measured": modules.get(
                                  "workloads.etc", 0.0) / whole},
        },
    }


def trace(workload: Any, compiled: Any, judge: Judge, seconds: float,
          scratch: str) -> Dict[str, Any]:
    """Alternate untraced and traced answers for *seconds*, then one
    profiled answer with every process placement inline."""
    clock = Clock()
    spans: List[Dict[str, float]] = []
    counter_sets: List[Dict[str, float]] = []
    deadline = time.monotonic() + seconds
    while len(spans) < MIN_TRACE_PAIRS or time.monotonic() < deadline:
        answer = clock.answer(workload, compiled, scratch)
        judge.check(answer, f"untraced answer {len(spans)}")
        log = SpanLog(os.path.join(scratch, f"spans-{len(spans)}"))
        with traced(log):
            answer = clock.answer(workload, compiled, scratch,
                                  counters=True)
        judge.check(answer, f"traced answer {len(spans)}")
        started, ended = clock.intervals[-1]
        spans.append(span_metrics(log.values(), answer, ended - started))
        counter_sets.append(counters(answer.runs))
    if any(c != counter_sets[0] for c in counter_sets):
        judge.violations.append("counters differ between traced answers")
    answer, grouped = profiled(
        lambda: workload.answer(compiled, scratch, inline=True),
        PACKAGE_DIR)
    judge.check(answer, "profiled answer")
    return {
        "untraced": clock.intervals[0::2],
        "traced": clock.intervals[1::2],
        "spans": spans,
        "counters": counter_sets[0],
        "profile": profile_metrics(grouped),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--scratch", default="")
    args = parser.parse_args(argv)

    expected = os.path.join(os.path.dirname(HERE), "src", "repro")
    if os.path.realpath(PACKAGE_DIR) != os.path.realpath(expected):
        print(f"imported repro from {PACKAGE_DIR}, expected {expected}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    compiled, setup_times = setup(workload, args.seed, args.scale)
    out: Dict[str, Any] = {
        "versions": {"python": platform.python_version(),
                     "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "policy": workload.policy(compiled),
    }
    if args.mode != "setup":
        judge = Judge(pinned_reference(args.workload, args.seed,
                                       args.scale))
        run = measure if args.mode == "measure" else trace
        out.update(run(workload, compiled, judge, args.seconds,
                       args.scratch))
        out.update(judge.report())
    out["setup"] = setup_times
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
