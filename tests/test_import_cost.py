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
