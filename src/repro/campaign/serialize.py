"""Serialization for campaign results.

Every result a campaign produces must survive two boundaries: the
pickle boundary out of worker processes and the JSON boundary into
the result store.  This module provides the dict round-trips for
:class:`~repro.core.testbed.RunMetrics` and
:class:`~repro.core.experiment.ExperimentResult`.  Specs serialize
through :mod:`repro.config.serialize` and the plan layer.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.experiment import ExperimentResult
from repro.core.testbed import RunMetrics
from repro.errors import ExperimentError

__all__ = [
    "run_metrics_to_dict",
    "run_metrics_from_dict",
    "experiment_result_to_dict",
    "experiment_result_from_dict",
]


# --------------------------------------------------------------- RunMetrics
def run_metrics_to_dict(metrics: RunMetrics) -> Dict[str, Any]:
    """Flatten one run's summary into plain JSON types.

    ``node_utilizations`` and ``obs_metrics`` are emitted only when
    non-empty (cluster runs / observed runs), so single-server
    unobserved payloads (and every result already in a store) keep
    their exact historical byte form.
    """
    data = {
        "avg_us": metrics.avg_us,
        "p99_us": metrics.p99_us,
        "true_avg_us": metrics.true_avg_us,
        "true_p99_us": metrics.true_p99_us,
        "requests": metrics.requests,
        "seed": metrics.seed,
        "server_utilization": metrics.server_utilization,
    }
    if metrics.node_utilizations:
        data["node_utilizations"] = list(metrics.node_utilizations)
    if metrics.obs_metrics:
        data["obs_metrics"] = [[name, value]
                               for name, value in metrics.obs_metrics]
    return data


def run_metrics_from_dict(data: Dict[str, Any]) -> RunMetrics:
    """Rebuild a :class:`RunMetrics` from its dict form."""
    try:
        return RunMetrics(
            avg_us=float(data["avg_us"]),
            p99_us=float(data["p99_us"]),
            true_avg_us=float(data["true_avg_us"]),
            true_p99_us=float(data["true_p99_us"]),
            requests=int(data["requests"]),
            seed=int(data["seed"]),
            server_utilization=float(data["server_utilization"]),
            node_utilizations=tuple(
                float(u) for u in data.get("node_utilizations", ())),
            obs_metrics=tuple(
                (str(name), float(value))
                for name, value in data.get("obs_metrics", ())),
        )
    except KeyError as exc:
        raise ExperimentError(
            f"invalid run-metrics dict: missing {exc}") from exc


# --------------------------------------------------------- ExperimentResult
def experiment_result_to_dict(result: ExperimentResult) -> Dict[str, Any]:
    """Flatten an :class:`ExperimentResult` into plain JSON types.

    JSON float encoding uses ``repr``, which round-trips IEEE doubles
    exactly, so a stored result is bit-identical to a fresh one.
    """
    return {
        "label": result.label,
        "workload": result.workload,
        "qps": result.qps,
        "runs": [run_metrics_to_dict(run) for run in result.runs],
        "metadata": dict(result.metadata),
    }


def experiment_result_from_dict(data: Dict[str, Any]) -> ExperimentResult:
    """Rebuild an :class:`ExperimentResult` from its dict form."""
    try:
        return ExperimentResult(
            label=str(data["label"]),
            workload=str(data["workload"]),
            qps=float(data["qps"]),
            runs=[run_metrics_from_dict(run) for run in data["runs"]],
            metadata=dict(data.get("metadata", {})),
        )
    except KeyError as exc:
        raise ExperimentError(
            f"invalid experiment-result dict: missing {exc}") from exc
