"""repro: reproduction of "Taming Performance Variability caused by
Client-Side Hardware Configuration" (Antoniou, Volos, Sazeides --
IISWC 2024).

The library has three faces:

* a **testbed simulator** -- a discrete-event model of a small
  client-server cluster with Skylake-class hardware behaviour
  (C-states, DVFS, SMT, uncore, timers) and the paper's four workloads
  (Memcached, HDSearch, Social Network, synthetic);
* a **host tuning toolkit** -- sysfs/MSR/grub/cpupower tooling that
  realizes the paper's LP/HP/baseline configurations on a real Linux
  machine (or a fake filesystem for tests);
* a **statistics + methodology layer** -- non-parametric CIs,
  Shapiro-Wilk, CONFIRM, conclusion-conflict detection and the
  Section VI recommendation rules.

All of it is driven through one public surface, :mod:`repro.api`:
typed, frozen, serializable :class:`ExperimentPlan` specs that the
CLI, campaign sweeps, figure studies and examples all compile down
to.

Quickstart::

    from repro import experiment

    result = (experiment("memcached")
              .client("LP")
              .load(qps=100_000, num_requests=1_000)
              .policy(runs=10)
              .run())
    print(result.median_avg_ci().format("us"))

Testbeds come from plans too: ``plan.testbed(seed)`` builds one
single-use testbed.  The pre-plan ``build_*_testbed`` /
``run_experiment`` entry points are gone; the README's migration table
maps each to its plan equivalent.
"""

from repro.api import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    PlanBuilder,
    RunPolicy,
    WorkloadSpec,
    experiment,
)
from repro.config import (
    HP_CLIENT,
    LP_CLIENT,
    SERVER_BASELINE,
    FrequencyDriver,
    FrequencyGovernor,
    HardwareConfig,
    UncorePolicy,
    client_by_name,
    server_with_c1e,
    server_with_smt,
)
from repro.core import (
    Experiment,
    ExperimentResult,
    RunMetrics,
    Testbed,
    compare_conditions,
    detect_conflicts,
    estimate_evaluation_time,
    recommend,
    scenario_table,
)
from repro.loadgen import GeneratorDesign, PointOfMeasurement
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.stats import (
    confirm_repetitions,
    nonparametric_median_ci,
    parametric_mean_ci,
    parametric_repetitions,
    shapiro_wilk,
)

#: Kept in sync with ``version`` in pyproject.toml.
__version__ = "0.3.0"

__all__ = [
    "__version__",
    # the unified experiment API (repro.api)
    "ExperimentPlan",
    "WorkloadSpec",
    "LoadSpec",
    "HardwareSpec",
    "RunPolicy",
    "PlanBuilder",
    "experiment",
    # configuration
    "HardwareConfig",
    "FrequencyDriver",
    "FrequencyGovernor",
    "UncorePolicy",
    "LP_CLIENT",
    "HP_CLIENT",
    "SERVER_BASELINE",
    "client_by_name",
    "server_with_smt",
    "server_with_c1e",
    "SkylakeParameters",
    "DEFAULT_PARAMETERS",
    # experiments
    "Testbed",
    "RunMetrics",
    "Experiment",
    "ExperimentResult",
    "compare_conditions",
    "detect_conflicts",
    "estimate_evaluation_time",
    "recommend",
    "scenario_table",
    "GeneratorDesign",
    "PointOfMeasurement",
    # statistics
    "nonparametric_median_ci",
    "parametric_mean_ci",
    "shapiro_wilk",
    "parametric_repetitions",
    "confirm_repetitions",
]
