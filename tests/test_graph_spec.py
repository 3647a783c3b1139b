"""Service-graph spec layer: validation, round-trip, hash stability.

Covers :mod:`repro.graph.spec` (tiers, cache fields, resilience
policies, DAG validation with did-you-mean), the graph presets, the
plan/builder plumbing, and the byte-stability contract: every plan,
condition and store key that existed *before* the graph subsystem
must serialize and hash exactly as it did then (new fields are
omitted when default).
"""

import pytest

from repro.api import (
    ArrivalSpec,
    ClusterSpec,
    GraphTierSpec,
    ResiliencePolicy,
    ServiceGraphSpec,
    SpecValidationError,
    experiment,
)
from repro.errors import ExperimentError
from repro.graph import (
    NO_RESILIENCE,
    as_graph_spec,
    as_resilience_policy,
    graph_preset,
    graph_preset_names,
)


def three_tier():
    return ServiceGraphSpec(tiers=(
        GraphTierSpec(name="frontend", downstream=("cache",)),
        GraphTierSpec(name="cache", kind="cache",
                      downstream=("leaf",), hit_ratio=0.8,
                      hit_service_us=4.0, fill_penalty_us=6.0),
        GraphTierSpec(name="leaf", shape=ClusterSpec(shards=4),
                      policy=ResiliencePolicy(hedge_after_us=100.0,
                                              hedges=1)),
    ))


class TestResiliencePolicy:
    def test_noop_default(self):
        assert ResiliencePolicy().is_noop
        assert NO_RESILIENCE.is_noop

    def test_retry_needs_timeout(self):
        with pytest.raises(SpecValidationError):
            ResiliencePolicy(max_retries=1)
        with pytest.raises(SpecValidationError):
            ResiliencePolicy(timeout_us=100.0)

    def test_hedge_needs_trigger(self):
        with pytest.raises(SpecValidationError):
            ResiliencePolicy(hedges=1)
        with pytest.raises(SpecValidationError):
            ResiliencePolicy(hedge_after_us=100.0)

    def test_backoff_needs_retries(self):
        with pytest.raises(SpecValidationError):
            ResiliencePolicy(backoff_us=10.0)

    def test_round_trip_omits_defaults(self):
        policy = ResiliencePolicy(timeout_us=500.0, max_retries=2)
        payload = policy.to_dict()
        assert payload == {"timeout_us": 500.0, "max_retries": 2}
        assert ResiliencePolicy.from_dict(payload) == policy
        assert as_resilience_policy(payload) == policy
        assert as_resilience_policy(None) == NO_RESILIENCE

    def test_unknown_field_did_you_mean(self):
        with pytest.raises(SpecValidationError, match="timeout_us"):
            ResiliencePolicy.from_dict({"timout_us": 500.0})


class TestGraphTierSpec:
    def test_unknown_kind_did_you_mean(self):
        with pytest.raises(SpecValidationError, match="cache"):
            GraphTierSpec(name="t", kind="cachee")

    def test_bad_name_rejected(self):
        with pytest.raises(SpecValidationError):
            GraphTierSpec(name="no spaces allowed")

    def test_cache_needs_downstream(self):
        with pytest.raises(SpecValidationError):
            GraphTierSpec(name="c", kind="cache", hit_ratio=0.5)

    def test_cache_hit_ratio_bounds(self):
        with pytest.raises(SpecValidationError):
            GraphTierSpec(name="c", kind="cache",
                          downstream=("leaf",), hit_ratio=1.5)

    def test_service_tier_rejects_cache_fields(self):
        with pytest.raises(SpecValidationError):
            GraphTierSpec(name="s", hit_ratio=0.5)

    def test_round_trip_omits_defaults(self):
        tier = GraphTierSpec(name="frontend", downstream=("leaf",))
        assert tier.to_dict() == {"name": "frontend",
                                  "downstream": ["leaf"]}
        assert GraphTierSpec.from_dict(tier.to_dict()) == tier


class TestServiceGraphSpec:
    def test_needs_a_tier(self):
        with pytest.raises(SpecValidationError):
            ServiceGraphSpec(tiers=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpecValidationError):
            ServiceGraphSpec(tiers=(
                GraphTierSpec(name="a", downstream=("a",)),
                GraphTierSpec(name="a")))

    def test_unknown_downstream_did_you_mean(self):
        with pytest.raises(SpecValidationError, match="leaf"):
            ServiceGraphSpec(tiers=(
                GraphTierSpec(name="front", downstream=("laef",)),
                GraphTierSpec(name="leaf")))

    def test_back_edges_rejected(self):
        # Downstream must point at later-declared tiers: declaration
        # order is the topological order, so cycles cannot exist.
        with pytest.raises(SpecValidationError,
                           match="topological order"):
            ServiceGraphSpec(tiers=(
                GraphTierSpec(name="a", downstream=("b",)),
                GraphTierSpec(name="b", downstream=("a",))))

    def test_unreachable_tier_rejected(self):
        with pytest.raises(SpecValidationError, match="unreachable"):
            ServiceGraphSpec(tiers=(
                GraphTierSpec(name="a"),
                GraphTierSpec(name="orphan")))

    def test_round_trip_is_exact(self):
        spec = three_tier()
        assert ServiceGraphSpec.from_dict(spec.to_dict()) == spec
        assert as_graph_spec(spec.to_dict()) == spec
        assert as_graph_spec(None) is None

    def test_describe_names_every_tier(self):
        text = three_tier().describe()
        for name in ("frontend", "cache", "leaf"):
            assert name in text

    def test_content_hash_distinguishes_topologies(self):
        plan = experiment("memcached").build()
        assert (plan.with_graph(three_tier()).content_hash()
                != plan.with_graph("memcached-cached").content_hash())


class TestGraphPresets:
    def test_registry_lists_both(self):
        assert graph_preset_names() == ("hdsearch-graph",
                                        "memcached-cached")

    def test_presets_validate_and_round_trip(self):
        for name in graph_preset_names():
            spec = graph_preset(name)
            assert ServiceGraphSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_preset_did_you_mean(self):
        with pytest.raises(ExperimentError,
                           match="memcached-cached"):
            graph_preset("memcached-cachd")


class TestPlanPlumbing:
    def test_builder_graph_round_trips(self):
        plan = (experiment("memcached")
                .graph("memcached-cached")
                .load(arrival=ArrivalSpec(shape="diurnal",
                                          period_us=20_000.0))
                .policy(metrics=True)
                .build())
        from repro.api import ExperimentPlan
        clone = ExperimentPlan.from_json(plan.to_json())
        assert clone == plan
        assert clone.graph == graph_preset("memcached-cached")
        assert clone.load.arrival.shape == "diurnal"
        assert clone.policy.metrics

    def test_graph_resets_cluster_and_vice_versa(self):
        plan = (experiment("memcached")
                .cluster(nodes=4, lb_policy="round-robin")
                .graph("memcached-cached")
                .build())
        assert plan.cluster == ClusterSpec()
        back = plan.with_cluster(nodes=2)
        assert back.graph is None

    def test_builder_last_topology_call_wins(self):
        plan = (experiment("memcached")
                .graph("memcached-cached")
                .cluster(nodes=4, lb_policy="round-robin")
                .build())
        assert plan.graph is None
        assert plan.cluster.nodes == 4

    def test_graph_conflicts_with_cluster_topology(self):
        from dataclasses import replace

        plan = (experiment("memcached")
                .graph("memcached-cached")
                .build())
        with pytest.raises(SpecValidationError):
            replace(plan, cluster=ClusterSpec(
                nodes=4, lb_policy="round-robin"))


class TestPreGraphByteStability:
    """Every pre-graph plan hash and store key is frozen.

    The literals below were captured from the commit *before* the
    graph subsystem landed.  If one changes, a default-valued new
    field leaked into serialization and every stored campaign result
    silently changed identity -- omit the field instead.
    """

    def test_plan_hashes_are_byte_stable(self):
        default = experiment("memcached").build()
        tuned = (experiment("hdsearch").client("HP")
                 .load(qps=2_000, num_requests=500)
                 .policy(runs=5, base_seed=9, trace=True)
                 .build())
        clustered = (experiment("memcached")
                     .cluster(nodes=4, lb_policy="power-of-two")
                     .load(qps=400_000).build())
        assert default.content_hash() == (
            "a602ff4701e1ccafb623406c44bba718"
            "c4c15f19ed18da96fbfcc2a29b96e281")
        assert tuned.content_hash() == (
            "d346cc0eede083afdb4cd38ee5e2e66e"
            "2c11124757e1610e50ffac11b06baf10")
        assert clustered.content_hash() == (
            "26066b59a7b6f28658a2eb507e070b99"
            "35480bf94b5c43309c27fcea15527099")

    def test_condition_store_key_is_byte_stable(self):
        from repro.campaign.spec import CampaignSpec
        from repro.config.presets import SERVER_BASELINE

        spec = CampaignSpec(
            name="s", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000.0,), runs=2, num_requests=100)
        assert spec.expand()[0].content_hash() == (
            "c9a9f504f03f821e505ef4fb08674954"
            "6731b309f0e29eb2306d96ef69ccf1a9")

    def test_serialized_forms_omit_graph_era_fields(self):
        plan = experiment("memcached").build()
        payload = plan.to_dict()
        assert "graph" not in payload
        assert "arrival" not in payload["load"]
        assert "metrics" not in payload["policy"]

        from repro.campaign.spec import CampaignSpec
        from repro.config.presets import SERVER_BASELINE

        spec = CampaignSpec(
            name="s", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(50_000.0,), runs=1, num_requests=10)
        assert "graph" not in spec.to_dict()
        assert "arrival" not in spec.to_dict()
        payload = spec.expand()[0].plan.to_dict()
        assert "graph" not in payload
        assert "arrival" not in payload["load"]
