"""Import-graph guard: the simulation path never loads scipy or networkx.

scipy.stats and networkx together cost most of a cold ``import repro``
yet only a few analysis helpers and the socialnetwork workload call
them, so they are imported inside those functions.  A fresh
interpreter with both libraries blocked must still import the package
surface and run memcached plans end to end, single-server and as a
sharded service graph; a module-level import anywhere on that path
makes it fail with ImportError.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

GUARDED_RUN = """
import sys
sys.modules["scipy"] = None
sys.modules["networkx"] = None

import repro
import repro.campaign
import repro.cli
import repro.core.provisioning
import repro.parallel
from repro.api import experiment

single = (experiment("memcached").client("LP")
          .load(qps=50_000, num_requests=500)
          .policy(runs=2, base_seed=1).build()).run()
graph = (experiment("memcached").client("LP").graph("memcached-cached")
         .load(qps=50_000, num_requests=500)
         .policy(runs=2, base_seed=1, workers=2).build()).run()
print(len(single.runs), len(graph.runs))
"""


def test_simulation_path_imports_neither_scipy_nor_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", GUARDED_RUN],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "2"]


WARM_POOL = """
import multiprocessing
import os
import sys

import repro

print("import", "numpy.random" in sys.modules, "numpy.ma" in sys.modules)
print("start", multiprocessing.get_start_method(), flush=True)

import repro.parallel.runner as runner
from repro.api import experiment
from repro.sim import sampling

execute = runner._execute_task


def probe(task):
    warm = ("numpy.random" in sys.modules, "numpy.ma" in sys.modules,
            sampling._c_samplers.cache_info().currsize == 1)
    os.write(1, ("task %s %s %s\\n" % warm).encode())
    return execute(task)


runner._execute_task = probe
plan = (experiment("memcached").client("LP")
        .load(qps=50_000, num_requests=runner.POOL_MIN_REQUESTS // 2)
        .policy(runs=2, base_seed=1).build())
print("runs", len(runner.run_sharded(plan, processes=2).runs), flush=True)
"""


def test_pooled_workers_start_warm():
    """A fork pool's workers inherit numpy.random, numpy.ma and the C
    samplers from the parent instead of loading them on their first
    task, while ``import repro`` alone still loads neither module.
    Runs in a fresh interpreter: a pytest process has usually imported
    both already."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", WARM_POOL],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "import False False"
    if lines[1] != "start fork":
        pytest.skip(f"pool workers are not forked here ({lines[1]})")
    tasks = [line for line in lines if line.startswith("task ")]
    assert tasks == ["task True True True"] * 2
    assert lines[-1] == "runs 2"
