"""Command-line interface.

Eleven subcommands mirror the library's faces::

    repro run --workload memcached --qps 100000 --workers 4
    repro study --workload memcached --knob smt --qps 10000 100000
    repro tune --config HP [--real] [--apply]
    repro autotune --tunable hardware.server.smt=bool --search grid
    repro recommend --loop open --interarrival block-wait
    repro capacity --qos-p99 400 --target-qps 1000000
    repro campaign run --preset memcached-smt --store results.sqlite
    repro plan --preset memcached-smt
    repro cluster --workload memcached --nodes 4 --policy power-of-two
    repro graph --graph memcached-cached --arrival diurnal
    repro trace --workload memcached --output trace.json

``repro run`` executes one experiment -- optionally sharded across
worker processes with ``--workers`` (see :mod:`repro.parallel`) --
and prints the repetition summary; ``repro study`` runs a scaled
study grid and prints the paper-style series; ``repro tune`` plans
(and optionally applies) a host configuration; ``repro autotune``
searches a declared tunable space for the max-capacity configuration
(see :mod:`repro.tune`); ``repro recommend``
prints the Section VI advice;
``repro capacity`` runs the provisioning analysis of Section V-A;
``repro campaign`` runs declarative experiment sweeps in parallel
against a persistent result store (``run``/``status``/``report``) --
killed campaigns resume, finished ones are served from cache; ``repro
plan`` validates and expands a campaign into its condition list with
content hashes and seed schedules *without running anything* (the
dry run for expensive sweeps); ``repro cluster`` deploys a workload
on a load-balanced, optionally sharded multi-server topology and
reports fan-out tail latency plus per-node utilization; ``repro
graph`` deploys a workload on a multi-tier service-graph topology
(cache tiers, tail-resilience policies, optionally time-varying
load) and reports tail latency plus cache/retry/hedge counters;
``repro trace`` runs one experiment with request-lifecycle tracing on and
writes a Chrome trace-event JSON (load it at https://ui.perfetto.dev)
plus a per-stage latency-breakdown table.

Every experiment the CLI launches is constructed through the
:mod:`repro.api` plan layer.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.analysis.figures import (
    hdsearch_study,
    memcached_study,
    render_latency_series,
    render_ratio_series,
    socialnetwork_study,
)
from repro.config.presets import client_by_name
from repro.core.provisioning import (
    capacity_under_qos,
    provisioning_error,
    provisioning_plan,
)
from repro.core.recommendations import recommend
from repro.host.filesystem import (
    FakeFilesystem,
    RealFilesystem,
    make_skylake_tree,
)
from repro.host.tuner import HostTuner
from repro.loadgen.base import GeneratorDesign


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Client-side hardware configuration toolkit "
                    "(IISWC'24 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run one experiment, optionally sharded across "
                    "worker processes")
    run.add_argument("--workload", default="memcached",
                     help="registered workload name")
    run.add_argument("--client", default="LP",
                     help="client preset (LP or HP)")
    run.add_argument("--qps", type=float, default=None,
                     help="offered load (default: the workload's)")
    run.add_argument("--requests", type=int, default=None,
                     help="requests per run "
                          "(default: the workload's)")
    run.add_argument("--runs", type=int, default=5,
                     help="repetitions (the paper: 50)")
    run.add_argument("--seed", type=int, default=0,
                     help="base seed for the repetition protocol")
    run.add_argument("--workers", type=int, default=1,
                     help="shard width W: decompose each run into W "
                          "striped full-replica shards at qps/W "
                          "(part of the plan's content hash)")
    run.add_argument("--processes", type=int, default=None,
                     help="processes to place repetitions and shards "
                          "over (default: min(tasks, usable cores), up "
                          "to twice the cores for long repetitions; 1 "
                          "runs serially in this process)")
    run.add_argument("--sink", default=None,
                     help="telemetry sink (columnar or streaming)")
    run.add_argument("--engine", default=None,
                     help="event-loop engine (reference or "
                          "vectorized; default: vectorized)")

    study = commands.add_parser(
        "study", help="run a client-vs-server study grid")
    study.add_argument("--workload", default="memcached",
                       choices=["memcached", "hdsearch",
                                "socialnetwork"])
    study.add_argument("--knob", default="smt",
                       choices=["smt", "c1e"],
                       help="server-side knob under study")
    study.add_argument("--qps", type=float, nargs="+",
                       default=[10_000, 100_000, 500_000])
    study.add_argument("--runs", type=int, default=10)
    study.add_argument("--requests", type=int, default=500)
    study.add_argument("--metric", default="avg",
                       choices=["avg", "p99", "true_avg", "stdev_avg"])
    study.add_argument("--seed", type=int, default=0,
                       help="base seed for the repetition protocol")

    tune = commands.add_parser(
        "tune",
        help="plan/apply a host configuration (the measurement-"
             "config advisor; for the capacity optimizer see "
             "'repro autotune')",
        description="Plan (and optionally apply) the paper's "
                    "measurement host configuration on /sys.  To "
                    "*search* the simulated policy space for a "
                    "max-capacity configuration instead, see "
                    "'repro autotune'.")
    tune.add_argument("--config", default="HP",
                      help="LP or HP")
    tune.add_argument("--real", action="store_true",
                      help="operate on the live /sys and /dev/cpu "
                           "(requires root) instead of a fake host")
    tune.add_argument("--apply", action="store_true",
                      help="apply the plan (default: dry run)")

    from repro.tune.cli import add_autotune_parser
    add_autotune_parser(commands)

    advise = commands.add_parser(
        "recommend", help="Section VI configuration recommendation")
    advise.add_argument("--loop", default="open",
                        choices=["open", "closed"])
    advise.add_argument("--interarrival", default="block-wait",
                        choices=["block-wait", "busy-wait"])
    advise.add_argument("--target", default=None,
                        help="known target environment (LP/HP)")

    capacity = commands.add_parser(
        "capacity", help="QoS capacity + provisioning analysis")
    capacity.add_argument("--qos-p99", type=float, default=400.0,
                          help="99th-percentile QoS target in us")
    capacity.add_argument("--target-qps", type=float,
                          default=1_000_000.0)
    capacity.add_argument("--qps", type=float, nargs="+",
                          default=[100_000, 200_000, 300_000,
                                   400_000, 500_000])
    capacity.add_argument("--runs", type=int, default=10)
    capacity.add_argument("--requests", type=int, default=500)
    capacity.add_argument("--seed", type=int, default=0,
                          help="base seed for the repetition protocol")

    campaign = commands.add_parser(
        "campaign", help="parallel, resumable experiment sweeps")
    campaign_commands = campaign.add_subparsers(
        dest="campaign_command", required=True)
    for verb, help_text in (
            ("run", "execute a campaign (skips stored conditions)"),
            ("status", "show completion state against the store"),
            ("report", "render paper-style series from the store")):
        sub = campaign_commands.add_parser(verb, help=help_text)
        source = sub.add_mutually_exclusive_group(required=True)
        source.add_argument("--spec", metavar="FILE",
                            help="campaign spec JSON file")
        source.add_argument("--preset",
                            help="named preset, e.g. memcached-smt "
                                 "(see repro.campaign.presets)")
        sub.add_argument("--store", default="campaign-results.sqlite",
                         help="SQLite result store path")
        sub.add_argument("--qps", type=float, nargs="+", default=None,
                         help="override the spec's QPS sweep")
        sub.add_argument("--runs", type=int, default=None,
                         help="override repetitions per condition")
        sub.add_argument("--requests", type=int, default=None,
                         help="override requests per run")
        sub.add_argument("--seed", type=int, default=None,
                         help="override the campaign base seed")
        sub.add_argument("--engine", default=None,
                         help="event-loop engine (reference or "
                              "vectorized; default: vectorized; "
                              "validated before any condition runs)")
        if verb == "run":
            parallelism = sub.add_mutually_exclusive_group()
            parallelism.add_argument(
                "--workers", type=int, default=None,
                help="worker processes (default: usable cores)")
            parallelism.add_argument(
                "--serial", action="store_true",
                help="run inline in this process")
            sub.add_argument("--chunksize", type=int, default=1,
                             help="conditions per worker task")
        if verb == "report":
            sub.add_argument("--metric", default="avg",
                             choices=["avg", "p99", "true_avg",
                                      "stdev_avg"])

    plan = commands.add_parser(
        "plan", help="validate + expand a campaign without running "
                     "(dry run)")
    plan_source = plan.add_mutually_exclusive_group(required=True)
    plan_source.add_argument("--spec", metavar="FILE",
                             help="campaign spec JSON file")
    plan_source.add_argument("--preset",
                             help="named preset, e.g. memcached-smt")
    plan_source.add_argument("--workload",
                             help="build an ad-hoc campaign for this "
                                  "workload instead")
    plan.add_argument("--knob", default=None,
                      choices=["smt", "c1e"],
                      help="server knob for an ad-hoc --workload "
                           "campaign (default: baseline server only)")
    plan.add_argument("--clients", nargs="+", default=None,
                      metavar="NAME",
                      help="client presets for an ad-hoc campaign "
                           "(default: LP HP)")
    plan.add_argument("--param", action="append", default=[],
                      metavar="KEY=VALUE",
                      help="workload parameter, e.g. "
                           "added_delay_us=200 (repeatable)")
    plan.add_argument("--qps", type=float, nargs="+", default=None,
                      help="override the QPS sweep")
    plan.add_argument("--runs", type=int, default=None,
                      help="override repetitions per condition")
    plan.add_argument("--requests", type=int, default=None,
                      help="override requests per run")
    plan.add_argument("--seed", type=int, default=None,
                      help="override the campaign base seed")
    plan.add_argument("--sink", default=None,
                      help="telemetry sink the run policy would use "
                           "(columnar or streaming)")
    plan.add_argument("--trace", action="store_true",
                      help="preview the policy with lifecycle "
                           "tracing on")
    plan.add_argument("--engine", default=None,
                      help="event-loop engine the conditions would "
                           "run on (reference or vectorized; "
                           "default: vectorized)")
    plan.add_argument("--graph", default=None, metavar="PRESET",
                      help="service-graph preset for an ad-hoc "
                           "--workload campaign (validated with "
                           "did-you-mean before expansion)")
    plan.add_argument("--tunable", action="append", default=None,
                      metavar="FIELD=SPEC",
                      help="validate an autotune tunable against the "
                           "campaign's plans (repeatable; unknown "
                           "fields fail with a did-you-mean before "
                           "anything executes -- see "
                           "'repro autotune')")

    from repro.cluster.spec import LB_POLICIES
    cluster = commands.add_parser(
        "cluster", help="run a workload on a multi-server cluster "
                        "topology")
    cluster.add_argument("--workload", default="memcached",
                         help="registered workload name")
    cluster.add_argument("--nodes", type=int, default=4,
                         help="server groups behind the load balancer")
    cluster.add_argument("--policy", default="power-of-two",
                         choices=list(LB_POLICIES),
                         help="load-balancing policy")
    cluster.add_argument("--shards", type=int, default=1,
                         help="shard stations per server group")
    cluster.add_argument("--fanout", type=int, default=0,
                         help="shards touched per request (0 = all)")
    cluster.add_argument("--quorum", type=int, default=0,
                         help="responses completing a request "
                              "(0 = all of fanout)")
    cluster.add_argument("--replication", type=int, default=1,
                         help="replicas per shard")
    cluster.add_argument("--client", default="LP",
                         help="client preset (LP or HP)")
    cluster.add_argument("--qps", type=float, default=None,
                         help="aggregate offered load (default: the "
                              "workload's default, scaled by nodes)")
    cluster.add_argument("--runs", type=int, default=5)
    cluster.add_argument("--requests", type=int, default=500)
    cluster.add_argument("--seed", type=int, default=0,
                         help="base seed for the repetition protocol")

    from repro.graph.presets import graph_preset_names
    graph = commands.add_parser(
        "graph", help="run a workload on a multi-tier service-graph "
                      "topology (cache tiers + resilience policies)")
    graph.add_argument("--workload", default="memcached",
                       help="registered workload name")
    graph.add_argument("--graph", default="memcached-cached",
                       metavar="PRESET",
                       help="graph topology preset: "
                            + ", ".join(graph_preset_names()))
    graph.add_argument("--client", default="LP",
                       help="client preset (LP or HP)")
    graph.add_argument("--qps", type=float, default=None,
                       help="offered load (default: the workload's)")
    graph.add_argument("--arrival", default=None,
                       choices=["poisson", "diurnal", "flash-crowd"],
                       help="arrival process shape "
                            "(default: stationary Poisson)")
    graph.add_argument("--runs", type=int, default=5)
    graph.add_argument("--requests", type=int, default=500)
    graph.add_argument("--seed", type=int, default=0,
                       help="base seed for the repetition protocol")
    graph.add_argument("--engine", default=None,
                       help="event-loop engine (reference or "
                            "vectorized; default: vectorized)")

    trace = commands.add_parser(
        "trace", help="run one traced experiment and export a "
                      "Chrome trace (Perfetto-loadable)")
    trace.add_argument("--workload", default="memcached",
                       help="registered workload name")
    trace.add_argument("--client", default="LP",
                       help="client preset (LP or HP)")
    trace.add_argument("--qps", type=float, default=None,
                       help="offered load (default: the workload's)")
    trace.add_argument("--requests", type=int, default=None,
                       help="requests to simulate "
                            "(default: the workload's)")
    trace.add_argument("--seed", type=int, default=0,
                       help="root seed for the traced run")
    trace.add_argument("--sink", default=None,
                       help="telemetry sink (columnar or streaming)")
    trace.add_argument("--engine", default=None,
                       help="event-loop engine (reference or "
                            "vectorized; default: vectorized); a "
                            "traced run adopts nothing, so "
                            "engine.kernel.scalar_fallbacks counts "
                            "every event")
    trace.add_argument("--output", "-o", default="trace.json",
                       help="Chrome trace JSON output path")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one experiment (optionally sharded) and summarize it."""
    from repro.api import experiment
    from repro.errors import ReproError
    from repro.parallel.runner import run_sharded

    try:
        builder = (experiment(args.workload)
                   .client(client_by_name(args.client)))
        load_kwargs = {}
        if args.qps is not None:
            load_kwargs["qps"] = args.qps
        if args.requests is not None:
            load_kwargs["num_requests"] = args.requests
        if load_kwargs:
            builder = builder.load(**load_kwargs)
        plan = (builder
                .policy(runs=args.runs, base_seed=args.seed,
                        sink=args.sink, engine=args.engine,
                        workers=args.workers)
                .build())
        result = run_sharded(plan, processes=args.processes)
        avg = float(np.median(result.avg_samples()))
        p99 = float(np.median(result.p99_samples()))
        true_p99 = float(np.median(result.true_p99_samples()))
        sharding = (f", {plan.policy.workers} shard workers"
                    if plan.policy.workers > 1 else "")
        print(f"{args.workload} @ {plan.load.qps:g} QPS "
              f"({plan.policy.runs} runs x "
              f"{plan.load.num_requests} requests, "
              f"seed {args.seed}{sharding})")
        print(f"plan hash: {plan.content_hash()[:12]}")
        print(f"  median avg latency:  {avg:10.1f} us")
        print(f"  median p99 latency:  {p99:10.1f} us")
        print(f"  median true p99:     {true_p99:10.1f} us")
        print(f"  server utilization:  "
              f"{result.mean_server_utilization():10.3f}")
        return 0
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_study(args: argparse.Namespace) -> int:
    builders = {
        "memcached": lambda: memcached_study(
            knob=args.knob, qps_list=args.qps, runs=args.runs,
            num_requests=args.requests, base_seed=args.seed),
        "hdsearch": lambda: hdsearch_study(
            knob=args.knob, qps_list=args.qps, runs=args.runs,
            num_requests=args.requests, base_seed=args.seed),
        "socialnetwork": lambda: socialnetwork_study(
            qps_list=args.qps, runs=args.runs,
            num_requests=args.requests, base_seed=args.seed),
    }
    grid = builders[args.workload]()
    print(render_latency_series(grid, args.metric))
    conditions = list(grid.conditions)
    if len(conditions) == 2:
        print()
        print(render_ratio_series(
            grid, conditions[0], conditions[1], "avg"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    config = client_by_name(args.config)
    fs = RealFilesystem() if args.real else FakeFilesystem(
        make_skylake_tree())
    tuner = HostTuner(fs)
    plan = tuner.plan(config)
    print(plan.render())
    if args.apply:
        result = tuner.apply(plan)
        print(f"\napplied {len(result.performed)} actions"
              + ("; reboot required for boot-time knobs"
                 if result.needs_reboot else ""))
    else:
        print("\n(dry run; pass --apply to execute)")
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    """Closed-loop policy search; the heavy lifting lives in
    :mod:`repro.tune.cli` to keep this module import-light."""
    from repro.tune.cli import cmd_autotune

    return cmd_autotune(args)


def _cmd_recommend(args: argparse.Namespace) -> int:
    design = GeneratorDesign(
        loop=args.loop,
        time_sensitive=args.interarrival == "block-wait")
    target = client_by_name(args.target) if args.target else None
    advice = recommend(design, target_config=target,
                       target_known=target is not None)
    print(f"Generator design: {design.describe()} "
          f"({design.interarrival_impl})\n")
    print(advice.render())
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    from repro.api import experiment

    observers = {}
    for name in ("LP", "HP"):
        config = client_by_name(name)
        base_plan = (experiment("memcached")
                     .client(config)
                     .load(num_requests=args.requests)
                     .policy(runs=args.runs, base_seed=args.seed)
                     .build())
        latency_by_qps = {}
        for qps in args.qps:
            result = base_plan.with_qps(qps).run()
            latency_by_qps[qps] = float(
                np.median(result.p99_samples()))
        observers[name] = capacity_under_qos(
            latency_by_qps, args.qos_p99, metric="p99")
        capacity = observers[name]
        print(f"{name}: capacity {capacity.capacity_qps:g} QPS under "
              f"p99 <= {args.qos_p99:g} us"
              + (" (sweep-limited)" if capacity.sweep_limited else ""))

    usable = {name: cap for name, cap in observers.items()
              if cap.capacity_qps > 0}
    if len(usable) >= 2:
        ratios = provisioning_error(usable, args.target_qps)
        print(f"\nFleet sizes for {args.target_qps:g} QPS:")
        for name, capacity in usable.items():
            plan = provisioning_plan(args.target_qps, capacity)
            print(f"  {name}: {plan.machines} machines "
                  f"({ratios[name]:.2f}x the optimistic observer)")
    return 0


def _spec_overrides(args: argparse.Namespace) -> dict:
    """CampaignSpec overrides from the shared CLI flags."""
    overrides = {}
    if args.qps is not None:
        overrides["qps_list"] = tuple(args.qps)
    if args.runs is not None:
        overrides["runs"] = args.runs
    if args.requests is not None:
        overrides["num_requests"] = args.requests
    if args.seed is not None:
        overrides["base_seed"] = args.seed
    if getattr(args, "engine", None) is not None:
        # Validated by CampaignSpec.__post_init__ -- an unknown name
        # fails with a did-you-mean before any condition executes.
        overrides["engine"] = args.engine
    return overrides


def _load_campaign_spec(args: argparse.Namespace):
    """The campaign spec named by --spec/--preset, with overrides."""
    from repro.campaign.presets import campaign_by_name
    from repro.campaign.spec import CampaignSpec

    if args.spec:
        spec = CampaignSpec.load(args.spec)
    else:
        spec = campaign_by_name(args.preset)
    overrides = _spec_overrides(args)
    return spec.with_overrides(**overrides) if overrides else spec


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign.executor import CampaignExecutor
    from repro.campaign.report import (
        render_campaign_report,
        render_campaign_status,
    )
    from repro.campaign.store import ResultStore, require_store
    from repro.errors import ReproError

    try:
        spec = _load_campaign_spec(args)
        if args.campaign_command == "run":
            workers = 1 if args.serial else args.workers
            with ResultStore(args.store) as store:
                executor = CampaignExecutor(
                    store=store, max_workers=workers,
                    chunksize=args.chunksize)

                def progress(outcome, completed, total):
                    condition = outcome.spec
                    timing = ("cached" if outcome.status == "hit"
                              else f"{outcome.elapsed_s:.2f}s")
                    detail = (f" [{outcome.error}]"
                              if outcome.status == "failed" else "")
                    print(f"[{completed}/{total}] {outcome.status:<6} "
                          f"{condition.label} @ {condition.qps:g} "
                          f"({timing}){detail}")

                outcome = executor.run(spec, progress=progress)
            print()
            print(outcome.summary())
            print(f"store: {args.store}")
            return 0 if outcome.ok else 1
        with require_store(args.store) as store:
            if args.campaign_command == "status":
                print(render_campaign_status(spec, store))
                return 0
            print(render_campaign_report(spec, store, args.metric))
            return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _parse_param(text: str):
    """``KEY=VALUE`` -> (key, value), numbers parsed as floats."""
    from repro.errors import ExperimentError

    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ExperimentError(
            f"--param expects KEY=VALUE, got {text!r}")
    try:
        value = float(raw)
    except ValueError:
        value = raw
    return key, value


def _plan_campaign_spec(args: argparse.Namespace):
    """The campaign named by --spec/--preset, or an ad-hoc one."""
    from repro.campaign.spec import CampaignSpec
    from repro.config.presets import SERVER_BASELINE, knob_conditions
    from repro.errors import ExperimentError
    from repro.workloads.registry import find_workload

    if args.workload is None:
        # A dry run must never show a different campaign than the
        # flags describe: the ad-hoc-only flags are meaningless next
        # to --spec/--preset, so reject them instead of dropping them.
        for flag, value in (("--param", args.param or None),
                            ("--knob", args.knob),
                            ("--clients", args.clients),
                            ("--graph", args.graph)):
            if value is not None:
                raise ExperimentError(
                    f"{flag} only applies to an ad-hoc --workload "
                    f"campaign; a --spec/--preset campaign already "
                    f"defines it")
        return _load_campaign_spec(args)
    conditions = (knob_conditions(args.knob) if args.knob is not None
                  else {"baseline": SERVER_BASELINE})
    clients = None
    if args.clients is not None:
        try:
            clients = {name: client_by_name(name)
                       for name in args.clients}
        except ValueError as exc:
            raise ExperimentError(str(exc)) from None
    definition = find_workload(args.workload)
    if definition is not None and definition.qps_sweep:
        default_sweep = definition.qps_sweep
    elif definition is not None:
        default_sweep = (definition.default_qps,)
    else:
        # Unregistered workload: expansion below raises the
        # did-you-mean error; any placeholder sweep will do.
        default_sweep = (1_000.0,)
    graph = None
    if args.graph is not None:
        # Resolve the preset now so an unknown topology fails with
        # the registry's did-you-mean before any expansion output.
        from repro.graph.presets import graph_preset
        graph = graph_preset(args.graph)
    spec = CampaignSpec(
        name=f"{args.workload}-plan",
        workload=args.workload,
        conditions=conditions,
        qps_list=default_sweep,
        extra=dict(_parse_param(p) for p in args.param),
        graph=graph,
    )
    if clients is not None:
        spec = spec.with_overrides(clients=clients)
    overrides = _spec_overrides(args)
    return spec.with_overrides(**overrides) if overrides else spec


def _cmd_plan(args: argparse.Namespace) -> int:
    """Dry run: validate, expand and print -- simulate nothing."""
    from repro.errors import ReproError
    from repro.obs.sinks import describe_sink, validate_sink_name
    from repro.sim.kernel import describe_engine, validate_engine_name

    try:
        # Validate the sink, engine, and any declared tunables first
        # so a typo fails with the registry's did-you-mean before any
        # campaign expansion output.
        sink = (validate_sink_name(args.sink)
                if args.sink is not None else None)
        if args.engine is not None:
            validate_engine_name(args.engine)
        tune_space = None
        if args.tunable:
            from repro.tune.cli import space_from_tunable_args
            tune_space = space_from_tunable_args(args.tunable)
        spec = _plan_campaign_spec(args)
        plans = [c.plan for c in spec.expand()]
        if tune_space is not None:
            # Prove the space applies to this campaign's plans (field
            # paths, workload params, graph presets) -- still a dry
            # run; nothing simulates.
            tune_space.validate_against(plans[0])
        total_runs = sum(p.policy.runs for p in plans)
        total_requests = sum(p.policy.runs * p.load.num_requests
                             for p in plans)
        print(f"campaign {spec.name!r}: workload={spec.workload}, "
              f"{len(spec.clients)} clients x "
              f"{len(spec.conditions)} conditions x "
              f"{len(spec.qps_list)} loads = {len(plans)} "
              f"experiments")
        print(f"totals: {total_runs} runs, {total_requests} "
              f"simulated requests")
        if spec.extra:
            print(f"workload parameters: {spec.extra}")
        if spec.cluster is not None:
            print(f"cluster topology: {spec.cluster.describe()}")
        if spec.graph is not None:
            print("service graph:")
            for line in spec.graph.describe().splitlines():
                print(f"  {line}")
        if spec.arrival is not None:
            print(f"arrival process: {spec.arrival.describe()}")
        if tune_space is not None:
            print(f"tunable space ({tune_space.size()} candidates):")
            for line in tune_space.describe().splitlines():
                print(f"  {line}")
        policy = plans[0].policy
        overrides = {}
        if sink is not None:
            overrides["sink"] = sink
        if args.trace:
            overrides["trace"] = True
        if overrides:
            policy = replace(policy, **overrides)
        print(f"observability: sink={policy.sink} "
              f"({describe_sink(policy.sink)}), "
              f"tracing={'on' if policy.trace else 'off'}"
              + ("" if policy.observed
                 else " -- hot path runs unobserved"))
        print(f"engine: {policy.engine} "
              f"({describe_engine(policy.engine)})")
        print()
        print(f"{'#':>4} {'label':<16}{'qps':>10}  "
              f"{'seed schedule':<24}plan hash (store key)")
        for index, plan in enumerate(plans, start=1):
            seeds = plan.policy.seed_schedule()
            schedule = (f"{seeds[0]}" if len(seeds) == 1
                        else f"{seeds[0]}..{seeds[-1]}")
            print(f"{index:>4} {plan.label:<16}"
                  f"{plan.load.qps:>10g}  {schedule:<24}"
                  f"{plan.content_hash()[:12]}")
        print()
        print(f"dry run: validated {len(plans)} plans; "
              "nothing executed")
        return 0
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_cluster(args: argparse.Namespace) -> int:
    """Run one cluster experiment and summarize it per node."""
    from repro.api import experiment
    from repro.errors import ReproError
    from repro.workloads.registry import workload_by_name

    try:
        definition = workload_by_name(args.workload)
        qps = (args.qps if args.qps is not None
               else definition.default_qps * args.nodes)
        plan = (experiment(args.workload)
                .client(client_by_name(args.client))
                .load(qps=qps, num_requests=args.requests)
                .policy(runs=args.runs, base_seed=args.seed)
                .cluster(nodes=args.nodes, lb_policy=args.policy,
                         shards=args.shards, fanout=args.fanout,
                         quorum=args.quorum,
                         replication=args.replication)
                .build())
        result = plan.run()
        avg = float(np.median(result.avg_samples()))
        p99 = float(np.median(result.p99_samples()))
        true_p99 = float(np.median(result.true_p99_samples()))
        print(f"{args.workload} on {plan.cluster.describe()} "
              f"@ {qps:g} QPS ({args.runs} runs x "
              f"{args.requests} requests, seed {args.seed})")
        print(f"plan hash: {plan.content_hash()[:12]}")
        print(f"  median avg latency:  {avg:10.1f} us")
        print(f"  median p99 latency:  {p99:10.1f} us")
        print(f"  median true p99:     {true_p99:10.1f} us")
        utils = result.mean_node_utilizations()
        if utils:
            print(f"  per-node utilization "
                  f"(mean {result.mean_server_utilization():.3f}):")
            for index, value in enumerate(utils):
                print(f"    node {index}: {value:.3f}")
        else:
            print(f"  server utilization: "
                  f"{result.mean_server_utilization():.3f}")
        return 0
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_graph(args: argparse.Namespace) -> int:
    """Run one service-graph experiment and summarize it per tier."""
    from repro.api import ArrivalSpec, experiment
    from repro.errors import ReproError

    try:
        arrival = None
        if args.arrival == "diurnal":
            arrival = ArrivalSpec(shape="diurnal",
                                  period_us=20_000.0, amplitude=0.5)
        elif args.arrival == "flash-crowd":
            arrival = ArrivalSpec(shape="flash-crowd",
                                  spike_start_us=5_000.0,
                                  spike_duration_us=5_000.0,
                                  spike_factor=4.0)
        builder = (experiment(args.workload)
                   .client(client_by_name(args.client))
                   .graph(args.graph)
                   .policy(runs=args.runs, base_seed=args.seed,
                           metrics=True, engine=args.engine))
        load_kwargs = {"num_requests": args.requests,
                       "arrival": arrival}
        if args.qps is not None:
            load_kwargs["qps"] = args.qps
        plan = builder.load(**load_kwargs).build()
        result = plan.run()
        avg = float(np.median(result.avg_samples()))
        p99 = float(np.median(result.p99_samples()))
        true_p99 = float(np.median(result.true_p99_samples()))
        print(f"{args.workload} on service graph "
              f"{args.graph!r} @ {plan.load.qps:g} QPS "
              f"({args.runs} runs x {args.requests} requests, "
              f"seed {args.seed})")
        for line in plan.graph.describe().splitlines():
            print(f"  {line}")
        if arrival is not None:
            print(f"arrival process: {arrival.describe()}")
        print(f"plan hash: {plan.content_hash()[:12]}")
        print(f"  median avg latency:  {avg:10.1f} us")
        print(f"  median p99 latency:  {p99:10.1f} us")
        print(f"  median true p99:     {true_p99:10.1f} us")
        tier_metrics = [(name, value)
                        for name, value in result.runs[0].obs_metrics
                        if name.startswith(("cache.", "fanout.",
                                            "resilience."))]
        if tier_metrics:
            print(f"  tier counters (seed "
                  f"{plan.policy.seed_schedule()[0]} run):")
            width = max(34, max(len(name) for name, _ in tier_metrics))
            for name, value in tier_metrics:
                print(f"    {name:<{width}} {value:>12g}")
        return 0
    except (ReproError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """Run one traced experiment; write the trace, print the table."""
    from repro.api import experiment
    from repro.errors import ReproError
    from repro.obs.export import (
        latency_breakdown,
        render_breakdown_table,
        write_chrome_trace,
    )

    try:
        builder = (experiment(args.workload)
                   .client(client_by_name(args.client)))
        load_kwargs = {}
        if args.qps is not None:
            load_kwargs["qps"] = args.qps
        if args.requests is not None:
            load_kwargs["num_requests"] = args.requests
        if load_kwargs:
            builder = builder.load(**load_kwargs)
        plan = (builder
                .policy(runs=1, base_seed=args.seed, trace=True,
                        sink=args.sink, engine=args.engine)
                .build())
        testbed = plan.testbed(args.seed)
        metrics = testbed.run()
        tracer = testbed.sim.obs.tracer
        label = (f"{args.workload} @ {plan.load.qps:g} QPS "
                 f"(seed {args.seed})")
        payload = write_chrome_trace(tracer, args.output, label=label)
        breakdown = latency_breakdown(tracer)
        request_total = breakdown.get("request", {}).get("total_us")
        print(f"{args.workload} @ {plan.load.qps:g} QPS, "
              f"{plan.load.num_requests} requests, seed {args.seed}: "
              f"{metrics.requests} measured, "
              f"avg {metrics.avg_us:.1f} us, "
              f"p99 {metrics.p99_us:.1f} us")
        print(f"wrote {len(payload['traceEvents'])} trace events to "
              f"{args.output} (load at https://ui.perfetto.dev)")
        if tracer.dropped:
            print(f"warning: {tracer.dropped} spans dropped at the "
                  f"{tracer.max_spans} span cap")
        print()
        print(render_breakdown_table(breakdown, request_total))
        counters = dict(metrics.obs_metrics)
        if "engine.kernel.scalar_fallbacks" in counters:
            print()
            print("vectorized kernel engagement (tracing adopts "
                  "nothing):")
            for name in ("engine.events_dispatched",
                         "engine.kernel.scalar_fallbacks"):
                print(f"  {name:<34} {counters[name]:>12g}")
        return 0
    except (ReproError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "study": _cmd_study,
        "tune": _cmd_tune,
        "autotune": _cmd_autotune,
        "recommend": _cmd_recommend,
        "capacity": _cmd_capacity,
        "campaign": _cmd_campaign,
        "plan": _cmd_plan,
        "cluster": _cmd_cluster,
        "graph": _cmd_graph,
        "trace": _cmd_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
