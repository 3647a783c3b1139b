"""Per-layer measurement from outside the program: spans and a profile.

Two instruments, both attached by the benchmark for one pass and
removed afterwards, so the untraced passes run the program untouched:

* :func:`traced` wraps public entry points (plan compilation into a
  testbed factory, ``Testbed.run`` and the generator/simulator calls
  inside it, shard execution and merge, store persistence, capacity
  analysis) and appends each span to a :class:`SpanLog`.  Pool
  workers forked during the pass inherit the wrappers and append to
  the same log directory, one file per process.
* :func:`profiled` runs a callable under the stdlib ``cProfile`` and
  groups self-time by the ``repro`` package that owns each function.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers reported as ``self.<layer>`` / ``calls.<layer>``, in report order.
LAYERS = (
    "sim.engine", "sim.resources", "sim.sampling", "hardware", "server",
    "net", "loadgen", "workloads", "telemetry", "obs", "cluster",
    "graph", "campaign",
)

#: ``repro`` module prefix -> layer.  The vectorized kernel is part of
#: the engine; the seeded stream registry is part of sampling.  Modules
#: matching no prefix (api, core, parallel, stats, config, ...) and code
#: outside ``repro`` that no ``repro`` function called count as "other".
_MODULE_LAYERS = (
    ("sim.engine", "sim.engine"),
    ("sim.kernel", "sim.engine"),
    ("sim.resources", "sim.resources"),
    ("sim.sampling", "sim.sampling"),
    ("sim.random", "sim.sampling"),
    ("hardware", "hardware"),
    ("server", "server"),
    ("net", "net"),
    ("loadgen", "loadgen"),
    ("workloads", "workloads"),
    ("telemetry", "telemetry"),
    ("obs", "obs"),
    ("cluster", "cluster"),
    ("graph", "graph"),
    ("campaign", "campaign"),
)

OTHER = "other"


# ---------------------------------------------------------------- spans
class SpanLog:
    """Span records appended by every process of one traced pass.

    Each record is one JSON line in ``spans-<pid>.jsonl`` under
    *directory*; a forked worker has no exit hook that could flush a
    buffer, so every record is written when its span ends.
    """

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)

    def emit(self, name: str, value: float) -> None:
        path = os.path.join(self.directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([name, value]) + "\n")

    def values(self) -> Dict[str, List[float]]:
        """Every recorded value, by span name."""
        out: Dict[str, List[float]] = {}
        for entry in sorted(os.listdir(self.directory)):
            with open(os.path.join(self.directory, entry),
                      encoding="utf-8") as handle:
                for line in handle:
                    name, value = json.loads(line)
                    out.setdefault(name, []).append(float(value))
        return out


def _timed(log: SpanLog, name: str, fn: Callable[..., Any]
           ) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            log.emit(name, time.perf_counter() - started)
    return wrapper


@contextmanager
def traced(log: SpanLog) -> Iterator[None]:
    """Record spans around the program's public calls for one pass.

    Spans (summed per pass unless noted):

    * ``core.build_s`` / ``core.builds``: each call of a compiled
      plan's testbed factory (``ExperimentPlan.builder()``);
    * ``loadgen.start_s``: ``generator.start()`` inside ``Testbed.run``
      (arrival train and request synthesis);
    * ``sim.run_s`` / ``sim.events``: the event loop and its count;
    * ``telemetry.summarize_s``: the rest of ``Testbed.run`` (drain
      check and the per-run summary);
    * ``parallel.shard_s`` (one value per shard) and
      ``parallel.merge_s``: ``run_shard`` and ``merged_run_metrics``;
    * ``campaign.persist_s``: ``ResultStore.put_many``;
    * ``analysis.capacity_s``: ``capacity_under_qos``.
    """
    from repro.api.specs import ExperimentPlan
    from repro.campaign.store import ResultStore
    from repro.core import provisioning
    from repro.core.testbed import Testbed
    from repro.parallel import runner

    patches: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, replacement: Any) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    compile_builder = ExperimentPlan.builder
    run_testbed = Testbed.run

    def builder(plan: Any) -> Callable[[int], Any]:
        factory = compile_builder(plan)

        def build(seed: int) -> Any:
            started = time.perf_counter()
            testbed = factory(seed)
            log.emit("core.build_s", time.perf_counter() - started)
            return testbed
        return build

    def run(testbed: Any) -> Any:
        spent: Dict[str, float] = {}

        def stage(name: str, fn: Callable[[], Any]) -> Callable[[], Any]:
            def wrapper() -> Any:
                started = time.perf_counter()
                try:
                    return fn()
                finally:
                    spent[name] = time.perf_counter() - started
            return wrapper

        testbed.generator.start = stage("loadgen.start_s",
                                        testbed.generator.start)
        testbed.sim.run = stage("sim.run_s", testbed.sim.run)
        started = time.perf_counter()
        metrics = run_testbed(testbed)
        total = time.perf_counter() - started
        for name, value in spent.items():
            log.emit(name, value)
        log.emit("sim.events", float(testbed.sim.events_processed))
        log.emit("telemetry.summarize_s", total - sum(spent.values()))
        return metrics

    patch(ExperimentPlan, "builder", builder)
    patch(Testbed, "run", run)
    patch(runner, "run_shard",
          _timed(log, "parallel.shard_s", runner.run_shard))
    patch(runner, "merged_run_metrics",
          _timed(log, "parallel.merge_s", runner.merged_run_metrics))
    patch(ResultStore, "put_many",
          _timed(log, "campaign.persist_s", ResultStore.put_many))
    patch(provisioning, "capacity_under_qos",
          _timed(log, "analysis.capacity_s",
                 provisioning.capacity_under_qos))
    try:
        yield
    finally:
        for owner, name, original in reversed(patches):
            setattr(owner, name, original)


# -------------------------------------------------------------- profile
def _module_of(filename: str, package_dir: str) -> Optional[str]:
    """``"sim.engine"`` for ``<package_dir>/sim/engine.py``; None
    for code outside the package."""
    prefix = package_dir + os.sep
    if not filename.startswith(prefix) or not filename.endswith(".py"):
        return None
    return filename[len(prefix):-3].replace(os.sep, ".")


def _layer_of(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return OTHER


def group_profile(stats: Dict[Any, Any], package_dir: str
                  ) -> Dict[str, Dict[str, float]]:
    """Group ``pstats`` raw stats into per-layer self-time and calls.

    A ``repro`` function's self-time goes to its own layer.  Code
    outside ``repro`` (``heapq``, ``numpy``, builtins) is charged to
    the layer of each direct caller, in proportion to the time spent
    on that caller's behalf; what no ``repro`` function called is
    "other".

    Returns:
        ``{"self": layer -> s, "calls": layer -> count,
        "modules": repro module -> s}``.
    """
    self_s = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    calls = {layer: 0.0 for layer in LAYERS + (OTHER,)}
    modules: Dict[str, float] = {}
    for func, (_, ncalls, tottime, _, callers) in stats.items():
        module = _module_of(func[0], package_dir)
        if module is not None:
            layer = _layer_of(module)
            self_s[layer] += tottime
            calls[layer] += ncalls
            modules[module] = modules.get(module, 0.0) + tottime
            continue
        charged = 0.0
        for caller, (_, _, caller_tottime, _) in callers.items():
            caller_module = _module_of(caller[0], package_dir)
            if caller_module is None:
                continue
            self_s[_layer_of(caller_module)] += caller_tottime
            modules[caller_module] = (modules.get(caller_module, 0.0)
                                      + caller_tottime)
            charged += caller_tottime
        self_s[OTHER] += max(0.0, tottime - charged)
    return {"self": self_s, "calls": calls, "modules": modules}


def profiled(fn: Callable[[], Any], package_dir: str
             ) -> Tuple[Any, Dict[str, Dict[str, float]]]:
    """Run *fn* under ``cProfile``; return its result and the grouping."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    return result, group_profile(pstats.Stats(profiler).stats, package_dir)
