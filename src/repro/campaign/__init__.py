"""Campaign orchestration: declarative, parallel, resumable sweeps.

The paper's methodology is many repetitions across a grid of
conditions -- workloads x client/server knobs x QPS points x 50 seeds.
This package turns those ad-hoc loops into *campaigns*:

* :mod:`repro.campaign.spec` -- :class:`CampaignSpec` describes a
  cartesian sweep as data (dict/JSON-loadable) and expands it into
  :class:`ConditionSpec` cells, each holding the validated
  :class:`~repro.api.ExperimentPlan` that runs it.
* :mod:`repro.campaign.store` -- :class:`ResultStore` persists each
  condition's result in SQLite keyed by its plan's content hash and
  stamped with the model epoch that produced it, enabling cache hits,
  mid-run resume and store-backed analysis.
* :mod:`repro.campaign.executor` -- :class:`CampaignExecutor` fans
  conditions out over a process pool (each experiment is
  seed-deterministic and embarrassingly parallel) with per-condition
  failure isolation.
* :mod:`repro.campaign.presets` -- the paper's figure studies as
  named campaigns.
* :mod:`repro.campaign.report` -- status and store-backed rendering
  back into the :class:`~repro.analysis.figures.StudyGrid` shape.

Quickstart::

    from repro.campaign import (
        CampaignExecutor, CampaignSpec, ResultStore, campaign_by_name)

    spec = campaign_by_name("memcached-smt").with_overrides(
        runs=10, num_requests=500)
    with ResultStore("results.sqlite") as store:
        outcome = CampaignExecutor(store, max_workers=8).run(spec)
    print(outcome.summary())
"""

from repro.campaign.executor import (
    CampaignExecutor,
    CampaignOutcome,
    ConditionOutcome,
    execute_campaign,
    run_condition,
)
from repro.campaign.presets import campaign_by_name, preset_names
from repro.campaign.report import (
    grid_from_outcome,
    grid_from_store,
    render_campaign_report,
    render_campaign_status,
)
from repro.campaign.spec import CampaignSpec, ConditionSpec, cell_seed
from repro.campaign.store import ResultStore, open_store, require_store

__all__ = [
    "CampaignExecutor",
    "CampaignOutcome",
    "CampaignSpec",
    "ConditionOutcome",
    "ConditionSpec",
    "ResultStore",
    "campaign_by_name",
    "cell_seed",
    "execute_campaign",
    "grid_from_outcome",
    "grid_from_store",
    "open_store",
    "preset_names",
    "render_campaign_report",
    "render_campaign_status",
    "require_store",
    "run_condition",
]
