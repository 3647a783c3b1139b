"""Execution parity for the plan layer.

Golden-value tests prove plan-built memcached/hdsearch/synthetic runs
are bit-identical to the workload builders called directly at
seed 1234, and that campaign conditions run the plans they hold.
"""

import pytest

from repro.api import experiment
from repro.campaign.spec import CampaignSpec
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.workloads.registry import workload_by_name

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
    """plan.testbed(seed) == the registered builder, bit for bit."""
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
        from repro.workloads.registry import (
            ParamSpec,
            WorkloadDefinition,
            register_workload,
            workload_by_name,
        )

        register_workload(WorkloadDefinition(
            name="int-param-test",
            builder=workload_by_name("memcached").builder,
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

