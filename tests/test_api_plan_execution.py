"""Execution parity for the plan layer.

Golden-value tests prove plan-built memcached/hdsearch/synthetic runs
are bit-identical to ``WorkloadDefinition.build_testbed`` called
directly at seed 1234, that one registration deploys on every
topology, and that campaign conditions run the plans they hold.
"""

import dataclasses

import pytest

from repro.api import experiment
from repro.campaign.spec import CampaignSpec
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.workloads import registry
from repro.workloads.registry import register_workload, workload_by_name

from test_golden_values import GOLDEN, GOLDEN_SEED


def golden_plan(workload):
    qps, num_requests = GOLDEN[workload][:2]
    return (experiment(workload)
            .client(LP_CLIENT)
            .server(SERVER_BASELINE)
            .load(qps=qps, num_requests=num_requests)
            .policy(runs=1, base_seed=GOLDEN_SEED)
            .build())


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_plan_run_matches_golden_values(workload):
    """Plan-built runs reproduce the pinned seed-1234 metrics."""
    _, _, avg, p99, true_avg, true_p99, requests = GOLDEN[workload]
    result = golden_plan(workload).run()
    metrics = result.runs[0]
    assert metrics.avg_us == avg
    assert metrics.p99_us == p99
    assert metrics.true_avg_us == true_avg
    assert metrics.true_p99_us == true_p99
    assert metrics.requests == requests


@pytest.mark.parametrize("workload", sorted(GOLDEN))
def test_plan_testbed_matches_legacy_builder(workload):
    """plan.testbed(seed) == build_testbed called directly, bit for
    bit."""
    qps, num_requests = GOLDEN[workload][:2]
    legacy = workload_by_name(workload).build_testbed(
        seed=GOLDEN_SEED, client_config=LP_CLIENT,
        server_config=SERVER_BASELINE, qps=qps,
        num_requests=num_requests).run()
    via_plan = golden_plan(workload).testbed(GOLDEN_SEED).run()
    assert via_plan == legacy


@pytest.mark.parametrize("workload", sorted(
    ("hdsearch", "memcached", "socialnetwork", "synthetic")))
def test_plan_testbed_names_its_workload(workload):
    qps = {"memcached": 50_000, "hdsearch": 1_000,
           "socialnetwork": 200, "synthetic": 5_000}[workload]
    testbed = (experiment(workload).client(LP_CLIENT)
               .load(qps=qps, num_requests=30).build().testbed(1))
    assert testbed.workload == workload


#: topology -> how a plan builder deploys on it.
TOPOLOGIES = {
    "single-server": lambda builder: builder,
    "p2c-cluster": lambda builder: builder.cluster(
        nodes=2, lb_policy="power-of-two"),
    "cached-graph": lambda builder: builder.graph("memcached-cached"),
}


@pytest.mark.parametrize("engine", ["reference", "vectorized"])
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
def test_one_registration_runs_on_every_topology(monkeypatch, topology,
                                                 engine):
    """A workload registered once deploys on every topology: a copy
    of ``synthetic`` under another name runs the same numbers (no
    stream name or RunMetrics field carries the workload's name)."""
    monkeypatch.setattr(registry, "_WORKLOADS", dict(registry._WORKLOADS))
    register_workload(dataclasses.replace(
        workload_by_name("synthetic"), name="synthetic-copy"))

    def runs(workload):
        builder = (experiment(workload).client(LP_CLIENT)
                   .load(qps=10_000, num_requests=200))
        plan = (TOPOLOGIES[topology](builder)
                .policy(runs=2, base_seed=7, engine=engine).build())
        return plan.run().runs

    assert runs("synthetic-copy") == runs("synthetic")


def test_condition_to_plan_matches_direct_plan_execution():
    """Campaign conditions compile to plans that produce the same
    samples as hand-built plans with the same knobs."""
    spec = CampaignSpec(
        name="parity", workload="synthetic",
        conditions={"baseline": SERVER_BASELINE},
        qps_list=(5_000,), clients={"LP": LP_CLIENT},
        runs=2, num_requests=50, extra={"added_delay_us": 100.0})
    condition = spec.expand()[0]
    plan = condition.to_plan()
    assert plan.workload.param_dict() == {"added_delay_us": 100.0}
    assert plan.policy.base_seed == condition.plan.policy.base_seed
    assert plan.label == condition.label

    direct = (experiment("synthetic", added_delay_us=100.0)
              .client(LP_CLIENT, label="LP")
              .server(SERVER_BASELINE, label="baseline")
              .load(qps=5_000, num_requests=50)
              .policy(runs=2, base_seed=condition.plan.policy.base_seed,
                      label=condition.label)
              .build())
    assert direct == plan
    a, b = plan.run(), direct.run()
    assert a.avg_samples().tolist() == b.avg_samples().tolist()


def test_warmup_fraction_in_extra_routes_to_load_spec():
    spec = CampaignSpec(
        name="warmup", workload="memcached",
        conditions={"baseline": SERVER_BASELINE},
        qps_list=(50_000,), clients={"LP": LP_CLIENT},
        runs=1, num_requests=50, extra={"warmup_fraction": 0.2})
    plan = spec.expand()[0].to_plan()
    assert plan.load.warmup_fraction == 0.2
    assert plan.workload.param_dict() == {}


class TestCampaignExtraValidation:
    def base(self, **overrides):
        defaults = dict(
            name="v", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000,), clients={"LP": LP_CLIENT},
            runs=1, num_requests=50)
        defaults.update(overrides)
        return defaults

    def test_unknown_extra_key_fails_at_construction(self):
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError,
                           match="unknown parameter 'added_delay_us'"):
            CampaignSpec(**self.base(extra={"added_delay_us": 10.0}))

    def test_valid_extra_key_accepted(self):
        spec = CampaignSpec(**self.base(
            workload="synthetic", extra={"added_delay_us": 10}))
        assert spec.extra == {"added_delay_us": 10.0}

    def test_out_of_range_warmup_fails_at_construction(self):
        """warmup_fraction bounds match LoadSpec's [0, 1): the spec
        must fail at construction, not at plan-build time in a
        worker."""
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError, match="warmup_fraction"):
            CampaignSpec(**self.base(extra={"warmup_fraction": 1.0}))

    def test_int_params_survive_extra_normalization(self):
        """Campaign extra canonicalizes ints to floats for hashing;
        int-kind schema parameters must still validate and come back
        as ints."""
        import dataclasses

        from repro.workloads.registry import (
            ParamSpec,
            register_workload,
            workload_by_name,
        )

        register_workload(dataclasses.replace(
            workload_by_name("memcached"),
            name="int-param-test",
            params=(ParamSpec("fanout", int, 4, minimum=1),),
        ), replace=True)
        spec = CampaignSpec(**self.base(
            workload="int-param-test", extra={"fanout": 4}))
        assert spec.extra == {"fanout": 4}
        assert isinstance(spec.extra["fanout"], int)
        from repro.errors import SpecValidationError

        with pytest.raises(SpecValidationError, match="must be int"):
            CampaignSpec(**self.base(
                workload="int-param-test", extra={"fanout": 4.5}))

    def test_unregistered_workload_defers_validation(self):
        """A workload only the executing process registers must still
        construct -- validation then happens at plan-build time."""
        spec = CampaignSpec(**self.base(
            workload="not-imported-here", extra={"anything": 1}))
        with pytest.raises(Exception, match="unknown workload"):
            spec.expand()[0].to_plan()

