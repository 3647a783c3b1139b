"""CLI glue for ``repro autotune``.

Registered by :func:`repro.cli._build_parser`; lives here so the main
CLI module stays import-light (the tune machinery pulls in the
campaign executor).  Not to be confused with ``repro tune`` -- the
paper's host measurement-config advisor -- which keeps its verb; each
verb's ``--help`` points at the other.

Tunable shorthand (``--tunable FIELD=SPEC``):

=====================================  ============================
``hardware.server.smt=bool``           bool knob
``cluster.lb_policy=round-robin,random`` categorical list
``cluster.nodes=1..8`` / ``1..8..2``   int range (inclusive, strided)
``workload.value_size=64.0..4096.0..5`` float range (third = points)
=====================================  ============================

Atoms parse typed: ``on``/``true`` and ``off``/``false`` are bools,
numbers are ints/floats, ``C1+C1E`` splits into a list (C-state
sets), anything else stays a string.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List

from repro.errors import SpecValidationError
from repro.tune.objective import (
    DEFAULT_QOS_TARGET_US,
    OBJECTIVE_METRICS,
    CapacityObjective,
)
from repro.tune.report import render_tune_report, tune_report_dict
from repro.tune.search import (
    CandidateEvaluator,
    GridSearch,
    RandomSearch,
    SearchDriver,
    SuccessiveHalving,
)
from repro.tune.space import SearchSpace
from repro.tune.tunables import (
    BoolTunable,
    CategoricalTunable,
    FloatRangeTunable,
    IntRangeTunable,
    Tunable,
)


def _parse_atom(text: str) -> Any:
    """One typed value token (see module docstring)."""
    lowered = text.strip().lower()
    if lowered in ("on", "true"):
        return True
    if lowered in ("off", "false"):
        return False
    if "+" in text:
        return [part.strip() for part in text.split("+")]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text.strip()


def parse_tunable_option(text: str) -> Tunable:
    """One ``--tunable FIELD=SPEC`` option -> a validated tunable.

    Field typos fail here with the schema's did-you-mean -- before
    anything executes.
    """
    field, sep, spec = text.partition("=")
    field = field.strip()
    spec = spec.strip()
    if not sep or not field or not spec:
        raise SpecValidationError(
            f"--tunable expects FIELD=SPEC, got {text!r}")
    if spec.lower() == "bool":
        return BoolTunable(name=field, field=field)
    if ".." in spec:
        parts = [p.strip() for p in spec.split("..")]
        if len(parts) not in (2, 3):
            raise SpecValidationError(
                f"--tunable range expects LO..HI or LO..HI..N, "
                f"got {spec!r}")
        try:
            ints = [int(p) for p in parts]
        except ValueError:
            ints = []
        if ints:
            step = ints[2] if len(ints) == 3 else 1
            return IntRangeTunable(name=field, field=field,
                                   low=ints[0], high=ints[1],
                                   step=step)
        try:
            low, high = float(parts[0]), float(parts[1])
            points = int(parts[2]) if len(parts) == 3 else 5
        except ValueError as exc:
            raise SpecValidationError(
                f"--tunable range bounds must be numeric, got "
                f"{spec!r}") from exc
        return FloatRangeTunable(name=field, field=field,
                                 low=low, high=high, points=points)
    values = [_parse_atom(part) for part in spec.split(",")]
    return CategoricalTunable(name=field, field=field,
                              values=tuple(values))


def space_from_tunable_args(options: List[str]) -> SearchSpace:
    """A search space from repeated ``--tunable`` options."""
    if not options:
        raise SpecValidationError(
            "declare at least one --tunable FIELD=SPEC (or --space)")
    return SearchSpace(tunables=tuple(
        parse_tunable_option(option) for option in options))


def add_autotune_parser(commands: argparse._SubParsersAction) -> None:
    """Register the ``autotune`` verb on the CLI's subparser set."""
    autotune = commands.add_parser(
        "autotune",
        help="search the policy space for the max-capacity config "
             "(closed-loop optimizer; 'repro tune' is the host "
             "measurement-config advisor)",
        description="Search a tunable space over ExperimentPlan "
                    "fields for the configuration maximizing "
                    "capacity under a QoS target.  Evaluations are "
                    "memoized in the result store by content hash: "
                    "killed searches resume, identical re-runs are "
                    "100% cache hits.  For tuning the measurement "
                    "host itself (C-states, governors on /sys), see "
                    "'repro tune'.")
    autotune.add_argument("--workload", default="memcached",
                          help="registered workload name")
    autotune.add_argument("--client", default="LP",
                          help="client preset (LP or HP)")
    source = autotune.add_mutually_exclusive_group(required=True)
    source.add_argument("--tunable", action="append", default=None,
                        metavar="FIELD=SPEC",
                        help="tunable shorthand, repeatable: "
                             "hardware.server.smt=bool, "
                             "cluster.nodes=1..8, "
                             "policy.engine=reference,vectorized")
    source.add_argument("--space", metavar="FILE",
                        help="search-space JSON file "
                             "(SearchSpace.to_json form)")
    autotune.add_argument("--qps", type=float, nargs="+", default=None,
                          help="objective load sweep (default: the "
                               "workload's)")
    autotune.add_argument("--qos-p99", type=float,
                          default=DEFAULT_QOS_TARGET_US,
                          help="QoS latency target in us")
    autotune.add_argument("--metric", default="p99",
                          choices=list(OBJECTIVE_METRICS),
                          help="latency metric the target applies to")
    autotune.add_argument("--search", default="grid",
                          choices=["grid", "random", "halving"],
                          help="search driver")
    autotune.add_argument("--requests", type=int, default=200,
                          help="requests per run per trial "
                               "(grid/random; halving starts at "
                               "--budget0)")
    autotune.add_argument("--samples", type=int, default=8,
                          help="random-search candidate draws")
    autotune.add_argument("--budget0", type=int, default=50,
                          help="successive-halving rung-0 requests "
                               "per run")
    autotune.add_argument("--eta", type=int, default=2,
                          help="successive-halving promotion factor")
    autotune.add_argument("--initial", type=int, default=None,
                          help="successive-halving rung-0 candidate "
                               "count (default: the full grid)")
    autotune.add_argument("--runs", type=int, default=3,
                          help="repetitions per sweep point")
    autotune.add_argument("--seed", type=int, default=0,
                          help="search + condition seed root")
    autotune.add_argument("--store",
                          default="autotune-results.sqlite",
                          help="SQLite result store (the evaluation "
                               "cache; killed searches resume from "
                               "it)")
    autotune.add_argument("--no-store", action="store_true",
                          help="disable memoization (every condition "
                               "executes)")
    parallelism = autotune.add_mutually_exclusive_group()
    parallelism.add_argument("--workers", type=int, default=1,
                             help="executor worker processes "
                                  "(default: inline)")
    parallelism.add_argument("--serial", action="store_true",
                             help="run inline in this process")
    autotune.add_argument("--json", metavar="FILE", default=None,
                          help="also write the machine-readable "
                               "report to FILE")
    autotune.add_argument("--quiet", action="store_true",
                          help="suppress per-condition progress "
                               "lines")


def _make_driver(args: argparse.Namespace) -> SearchDriver:
    if args.search == "random":
        return RandomSearch(samples=args.samples, seed=args.seed,
                            num_requests=args.requests)
    if args.search == "halving":
        return SuccessiveHalving(budget0=args.budget0, eta=args.eta,
                                 seed=args.seed, initial=args.initial)
    return GridSearch(num_requests=args.requests)


def cmd_autotune(args: argparse.Namespace) -> int:
    """Run one search invocation end to end."""
    from repro.api import experiment
    from repro.campaign.store import ResultStore
    from repro.config.presets import client_by_name
    from repro.errors import ReproError
    from repro.workloads.registry import workload_by_name

    try:
        if args.space:
            with open(args.space, "r", encoding="utf-8") as handle:
                space = SearchSpace.from_json(handle.read())
        else:
            space = space_from_tunable_args(args.tunable or [])
        definition = workload_by_name(args.workload)
        qps_list = tuple(
            args.qps if args.qps is not None
            else (definition.qps_sweep or (definition.default_qps,)))
        objective = CapacityObjective(
            qps_list=qps_list, qos_target_us=args.qos_p99,
            metric=args.metric)
        plan = (experiment(args.workload)
                .client(client_by_name(args.client))
                .build())
        driver = _make_driver(args)
        max_workers = 1 if args.serial else args.workers

        def progress(outcome: Any, completed: int, total: int) -> None:
            if args.quiet:
                return
            condition = outcome.spec
            timing = ("cached" if outcome.status == "hit"
                      else f"{outcome.elapsed_s:.2f}s")
            detail = (f" [{outcome.error}]"
                      if outcome.status == "failed" else "")
            print(f"[{completed}/{total}] {outcome.status:<6} "
                  f"{condition.plan.hardware.server_label} @ "
                  f"{condition.qps:g} ({timing}){detail}")

        if args.no_store:
            evaluator = CandidateEvaluator(
                plan, space, objective, runs=args.runs,
                base_seed=args.seed, store=None,
                max_workers=max_workers)
            result = driver.run(evaluator, progress=progress)
        else:
            with ResultStore(args.store) as store:
                evaluator = CandidateEvaluator(
                    plan, space, objective, runs=args.runs,
                    base_seed=args.seed, store=store,
                    max_workers=max_workers)
                result = driver.run(evaluator, progress=progress)
        if not args.quiet:
            print()
        print(render_tune_report(result))
        print()
        print(result.summary())
        if not args.no_store:
            print(f"store: {args.store}")
        if args.json:
            with open(args.json, "w", encoding="utf-8") as handle:
                json.dump(tune_report_dict(result), handle, indent=2,
                          sort_keys=True)
            print(f"report json: {args.json}")
        return 0 if result.best is not None else 1
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


__all__ = ["add_autotune_parser", "cmd_autotune",
           "parse_tunable_option", "space_from_tunable_args"]
