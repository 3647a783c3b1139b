"""Experiment core: testbeds, runners, scenarios, conclusions.

This package implements the paper's primary contribution as reusable
machinery: assemble a client/server testbed under explicit hardware
configurations, run repetition protocols that keep samples iid,
summarize with the right confidence intervals, detect when two
configurations' conclusions *conflict*, estimate evaluation time
(repetition counts), and emit the Section VI configuration
recommendations.
"""

from repro.core.testbed import Testbed, RunMetrics
from repro.core.experiment import Experiment, ExperimentResult
from repro.core.scenarios import Scenario, scenario_table
from repro.core.comparison import (
    Comparison,
    ConclusionConflict,
    compare_conditions,
    detect_conflicts,
)
from repro.core.evaluation_time import (
    EvaluationTimeEstimate,
    estimate_evaluation_time,
)
from repro.core.recommendations import Recommendation, recommend
from repro.core.ordering import build_schedule, run_ordered
from repro.core.provisioning import (
    CapacityResult,
    ProvisioningPlan,
    capacity_under_qos,
    provisioning_error,
    provisioning_plan,
)

__all__ = [
    "build_schedule",
    "run_ordered",
    "CapacityResult",
    "ProvisioningPlan",
    "capacity_under_qos",
    "provisioning_plan",
    "provisioning_error",
    "Testbed",
    "RunMetrics",
    "Experiment",
    "ExperimentResult",
    "Scenario",
    "scenario_table",
    "Comparison",
    "ConclusionConflict",
    "compare_conditions",
    "detect_conflicts",
    "EvaluationTimeEstimate",
    "estimate_evaluation_time",
    "Recommendation",
    "recommend",
]
