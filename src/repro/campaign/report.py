"""Campaign status and reporting from the result store.

Bridges campaigns back into the analysis layer: a completed (or
partially-completed) campaign's stored results are reassembled into
the :class:`~repro.analysis.figures.StudyGrid` shape every figure
renderer already consumes -- so plots and tables come from the store,
not from re-simulation.

The figure imports are deliberately local to each function: the
analysis layer sits *above* the campaign layer (``figures`` builds its
grids through the campaign executor), so importing it at module scope
would be circular.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.campaign.executor import CampaignOutcome
from repro.campaign.spec import CampaignSpec, ConditionSpec
from repro.campaign.store import ResultStore
from repro.core.experiment import ExperimentResult
from repro.errors import ExperimentError


def _assemble_grid(spec: CampaignSpec,
                   results: Dict[str, ExperimentResult],
                   conditions: List[ConditionSpec]):
    from repro.analysis.figures import StudyGrid

    missing = [c for c in conditions
               if c.content_hash() not in results]
    if missing:
        listing = ", ".join(
            f"{c.label}@{c.qps:g}" for c in missing[:8])
        suffix = ", ..." if len(missing) > 8 else ""
        raise ExperimentError(
            f"campaign {spec.name!r} is incomplete: "
            f"{len(missing)}/{len(conditions)} conditions missing "
            f"({listing}{suffix})")
    grid = StudyGrid(workload=spec.workload,
                     conditions=dict(spec.conditions),
                     qps_list=spec.qps_list)
    for condition in conditions:
        hardware = condition.plan.hardware
        cell = grid.cells.setdefault(
            (hardware.client_label, hardware.server_label), {})
        cell[condition.qps] = results[condition.content_hash()]
    return grid


def grid_from_outcome(spec: CampaignSpec, outcome: CampaignOutcome):
    """A :class:`StudyGrid` from one executor invocation's outcome.

    Raises:
        ExperimentError: if any condition failed.
    """
    outcome.raise_on_failure()
    return _assemble_grid(spec, outcome.results(), spec.expand())


def grid_from_store(spec: CampaignSpec, store: ResultStore):
    """A :class:`StudyGrid` for *spec*, entirely from stored results.

    Raises:
        ExperimentError: if the store is missing any condition.
    """
    conditions = spec.expand()
    return _assemble_grid(spec, store.results_for(conditions),
                          conditions)


# ------------------------------------------------------------------ status
def campaign_progress(spec: CampaignSpec,
                      store: Optional[ResultStore]
                      ) -> Tuple[List[ConditionSpec],
                                 List[ConditionSpec]]:
    """(stored, missing) condition lists for *spec* against *store*."""
    conditions = spec.expand()
    if store is None:
        return [], conditions
    stored_hashes = store.hashes()
    stored = [c for c in conditions
              if c.content_hash() in stored_hashes]
    missing = [c for c in conditions
               if c.content_hash() not in stored_hashes]
    return stored, missing


def render_campaign_status(spec: CampaignSpec,
                           store: Optional[ResultStore]) -> str:
    """Human-readable completion status of *spec* against *store*."""
    stored, missing = campaign_progress(spec, store)
    total = len(stored) + len(missing)
    lines = [
        f"campaign {spec.name!r} ({spec.workload}, "
        f"{spec.runs} runs x {spec.num_requests} requests)",
        f"  conditions: {total} "
        f"({len(spec.clients)} clients x {len(spec.conditions)} "
        f"server conditions x {len(spec.qps_list)} QPS points)",
        f"  complete:   {len(stored)}/{total}",
    ]
    stale = store.stale_count() if store is not None else 0
    if stale:
        lines.append(f"  {stale} stored rows from another model epoch "
                     "(re-run on next invocation)")
    if missing:
        lines.append("  missing:")
        for condition in missing:
            lines.append(f"    {condition.label} @ {condition.qps:g}")
    else:
        lines.append("  all conditions stored; "
                     "reports render without re-simulation")
    timing = render_timing_table(stored, store)
    if timing:
        lines.append("")
        lines.append(timing)
    return "\n".join(lines)


def render_timing_table(stored: List[ConditionSpec],
                        store: Optional[ResultStore]) -> str:
    """Compact per-condition wall-time table for stored conditions.

    Returns an empty string when nothing has a recorded timing (no
    store, no stored conditions, or only pre-timing rows whose
    ``elapsed_s`` reads back as 0.0).
    """
    if store is None or not stored:
        return ""
    timings = store.timings_for(stored)
    rows = [(label, qps, runs, elapsed, wait, pid)
            for (label, qps, runs, elapsed, wait, pid)
            in timings.values()
            if elapsed > 0.0]
    if not rows:
        return ""
    rows.sort(key=lambda row: row[3], reverse=True)
    label_width = max(len("condition"),
                      max(len(row[0]) for row in rows))
    total = sum(row[3] for row in rows)
    total_wait = sum(row[4] for row in rows)
    lines = [
        "  timings (stored conditions, slowest first):",
        f"    {'condition':<{label_width}}  {'qps':>9}  "
        f"{'runs':>4}  {'wall':>8}  {'wait':>8}  {'pid':>7}",
    ]
    for label, qps, runs, elapsed, wait, pid in rows:
        pid_text = "-" if pid is None else str(pid)
        lines.append(
            f"    {label:<{label_width}}  {qps:>9g}  "
            f"{runs:>4d}  {elapsed:>7.2f}s  {wait:>7.2f}s  "
            f"{pid_text:>7}")
    lines.append(
        f"    {'total':<{label_width}}  {'':>9}  {'':>4}  "
        f"{total:>7.2f}s  {total_wait:>7.2f}s  {'':>7}")
    return "\n".join(lines)


def render_campaign_report(spec: CampaignSpec, store: ResultStore,
                           metric: str = "avg") -> str:
    """The paper-style series tables for a completed campaign."""
    from repro.analysis.figures import (
        render_latency_series,
        render_ratio_series,
    )

    grid = grid_from_store(spec, store)
    sections = [render_latency_series(grid, metric)]
    labels = list(spec.conditions)
    # A ratio of run-to-run stdevs is not a paper figure and
    # ratio_series does not support it; render the series table only.
    if len(labels) == 2 and metric != "stdev_avg":
        sections.append(render_ratio_series(
            grid, labels[0], labels[1], metric))
    return "\n\n".join(sections)
