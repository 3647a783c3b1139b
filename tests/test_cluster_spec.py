"""ClusterSpec validation, round-trips, and hash participation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ClusterSpec, ExperimentPlan, experiment
from repro.campaign.spec import CampaignSpec, ConditionSpec
from repro.cluster import (
    LB_POLICIES,
    SINGLE_SERVER,
    as_cluster_spec,
)
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.errors import SpecValidationError


class TestClusterSpecValidation:
    def test_default_is_single_server(self):
        spec = ClusterSpec()
        assert spec.is_single_server
        assert spec.describe() == "single-server"
        assert spec.total_stations == 1

    @pytest.mark.parametrize("field,value", [
        ("nodes", 0), ("nodes", -1),
        ("replication", 0),
        ("shards", 0),
        ("fanout", -1),
        ("quorum", -1),
    ])
    def test_lower_bounds(self, field, value):
        with pytest.raises(SpecValidationError, match=field):
            ClusterSpec(**{field: value})

    def test_fanout_cannot_exceed_shards(self):
        with pytest.raises(SpecValidationError, match="fanout"):
            ClusterSpec(shards=4, fanout=5)

    def test_quorum_cannot_exceed_fanout(self):
        with pytest.raises(SpecValidationError, match="quorum"):
            ClusterSpec(shards=8, fanout=4, quorum=5)

    def test_quorum_bounded_by_all_shards_when_fanout_defaults(self):
        spec = ClusterSpec(shards=8, quorum=8)
        assert spec.effective_quorum == 8
        with pytest.raises(SpecValidationError, match="quorum"):
            ClusterSpec(shards=8, quorum=9)

    def test_unknown_policy_rejected(self):
        with pytest.raises(SpecValidationError, match="lb_policy"):
            ClusterSpec(nodes=2, lb_policy="fastest-first")

    @pytest.mark.parametrize("value", [2.5, True, "four"])
    def test_non_integer_counts_rejected(self, value):
        with pytest.raises(SpecValidationError):
            ClusterSpec(nodes=value)

    def test_integral_float_normalizes_to_int(self):
        spec = ClusterSpec(nodes=4.0)
        assert spec.nodes == 4
        assert isinstance(spec.nodes, int)

    def test_effective_fanout_and_quorum_resolution(self):
        spec = ClusterSpec(shards=8)
        assert spec.effective_fanout == 8
        assert spec.effective_quorum == 8
        spec = ClusterSpec(shards=8, fanout=4, quorum=3)
        assert spec.effective_fanout == 4
        assert spec.effective_quorum == 3

    def test_explicit_all_shard_fanout_canonicalizes_to_default(self):
        """fanout=shards and fanout=0 are the same deployment, so
        they must be the same spec (and the same content-hash key)."""
        explicit = ClusterSpec(shards=8, fanout=8)
        assert explicit == ClusterSpec(shards=8)
        assert explicit.fanout == 0
        assert explicit.effective_fanout == 8

    def test_explicit_full_quorum_canonicalizes_to_default(self):
        explicit = ClusterSpec(shards=8, fanout=4, quorum=4)
        assert explicit == ClusterSpec(shards=8, fanout=4)
        assert explicit.quorum == 0
        assert explicit.effective_quorum == 4

    def test_dead_lb_policy_canonicalizes_away(self):
        """A topology with no balancer (one node, no replicas) must
        not key the store differently per never-used policy."""
        sharded = ClusterSpec(shards=8, lb_policy="least-outstanding")
        assert sharded == ClusterSpec(shards=8)
        assert sharded.lb_policy == "round-robin"
        # With a balancer present the policy is load-bearing.
        assert (ClusterSpec(nodes=2, lb_policy="least-outstanding")
                != ClusterSpec(nodes=2))

    def test_canonical_fanout_merge_semantics_are_pinned(self):
        """fanout=shards canonicalizes to 'all shards', so a later
        shard-count merge keeps fanning out to all of them; a fanout
        pinned below shards survives the merge (documented in
        ClusterSpec.__post_init__)."""
        all_shards = ClusterSpec(shards=4, fanout=4)
        assert all_shards.with_fields(shards=8).effective_fanout == 8
        pinned = ClusterSpec(shards=4, fanout=3)
        assert pinned.with_fields(shards=8).effective_fanout == 3

    def test_total_stations(self):
        spec = ClusterSpec(nodes=2, shards=3, replication=2)
        assert spec.total_stations == 12

    def test_describe_mentions_every_dimension(self):
        spec = ClusterSpec(nodes=2, shards=4, fanout=2, quorum=1,
                           replication=3, lb_policy="random")
        text = spec.describe()
        assert "2 nodes" in text
        assert "random" in text
        assert "4 shards" in text
        assert "fanout 2" in text
        assert "quorum 1" in text
        assert "x3 replicas" in text


class TestClusterSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = ClusterSpec(nodes=4, shards=2, fanout=2, quorum=1,
                           replication=2, lb_policy="power-of-two")
        assert ClusterSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        with pytest.raises(SpecValidationError, match="nodez"):
            ClusterSpec.from_dict({"nodez": 4})

    def test_partial_dict_uses_defaults(self):
        spec = ClusterSpec.from_dict({"nodes": 3})
        assert spec == ClusterSpec(nodes=3)

    def test_as_cluster_spec_coercions(self):
        assert as_cluster_spec(None) is SINGLE_SERVER
        spec = ClusterSpec(nodes=2)
        assert as_cluster_spec(spec) is spec
        assert as_cluster_spec({"nodes": 2}) == spec
        with pytest.raises(SpecValidationError, match="cluster"):
            as_cluster_spec(4)

    def test_with_fields_revalidates(self):
        spec = ClusterSpec(shards=4, fanout=2)
        assert spec.with_fields(fanout=4).effective_fanout == 4
        with pytest.raises(SpecValidationError):
            spec.with_fields(fanout=9)

    @given(
        nodes=st.integers(1, 6),
        replication=st.integers(1, 3),
        shards=st.integers(1, 6),
        fanout_frac=st.floats(0.0, 1.0),
        quorum_frac=st.floats(0.0, 1.0),
        policy=st.sampled_from(LB_POLICIES),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, nodes, replication, shards,
                                 fanout_frac, quorum_frac, policy):
        fanout = int(round(fanout_frac * shards))
        quorum = int(round(quorum_frac * (fanout or shards)))
        spec = ClusterSpec(nodes=nodes, replication=replication,
                           shards=shards, fanout=fanout,
                           quorum=quorum, lb_policy=policy)
        assert ClusterSpec.from_dict(spec.to_dict()) == spec
        assert 1 <= spec.effective_quorum <= spec.effective_fanout \
            <= spec.shards


class TestPlanIntegration:
    def plan(self, **cluster_fields):
        builder = (experiment("memcached")
                   .client(LP_CLIENT)
                   .load(qps=100_000, num_requests=100)
                   .policy(runs=1))
        if cluster_fields:
            builder = builder.cluster(**cluster_fields)
        return builder.build()

    def test_default_plan_omits_cluster_key(self):
        """Pre-cluster plan hashes -- and therefore every stored
        campaign row -- must be untouched by the new field."""
        assert "cluster" not in self.plan().to_dict()

    def test_cluster_plan_round_trips(self):
        plan = self.plan(nodes=4, lb_policy="least-outstanding")
        assert ExperimentPlan.from_json(plan.to_json()) == plan
        assert plan.cluster.nodes == 4

    def test_builder_accepts_spec_object(self):
        spec = ClusterSpec(nodes=2)
        plan = (experiment("memcached").client(LP_CLIENT)
                .cluster(spec).build())
        assert plan.cluster == spec

    def test_builder_rejects_spec_and_fields(self):
        with pytest.raises(SpecValidationError, match="not both"):
            experiment("memcached").cluster(ClusterSpec(), nodes=2)

    def test_with_cluster_merges_fields(self):
        plan = self.plan(nodes=4)
        merged = plan.with_cluster(lb_policy="random")
        assert merged.cluster.nodes == 4
        assert merged.cluster.lb_policy == "random"

    def test_with_cluster_no_args_resets_to_single(self):
        plan = self.plan(nodes=4)
        assert plan.with_cluster().cluster.is_single_server

    def test_with_cluster_rejects_spec_and_fields(self):
        with pytest.raises(SpecValidationError, match="not both"):
            self.plan().with_cluster(ClusterSpec(), nodes=2)

    def test_hash_tracks_every_cluster_field(self):
        base = self.plan(nodes=4, shards=2)
        seen = {base.content_hash(), self.plan().content_hash()}
        for changed in (
                base.with_cluster(nodes=5),
                base.with_cluster(replication=2),
                base.with_cluster(shards=4),
                base.with_cluster(shards=2, fanout=1),
                base.with_cluster(shards=2, fanout=2, quorum=1),
                base.with_cluster(lb_policy="random"),
        ):
            digest = changed.content_hash()
            assert digest not in seen
            seen.add(digest)

    def test_explicit_single_server_hashes_like_default(self):
        explicit = self.plan(nodes=1)
        assert explicit.content_hash() == self.plan().content_hash()


class TestCampaignIntegration:
    def base(self, **overrides):
        defaults = dict(
            name="cluster-test", workload="memcached",
            conditions={"baseline": SERVER_BASELINE},
            qps_list=(100_000,), clients={"LP": LP_CLIENT},
            runs=1, num_requests=50)
        defaults.update(overrides)
        return CampaignSpec(**defaults)

    def test_single_server_cluster_normalizes_to_none(self):
        spec = self.base(cluster=ClusterSpec())
        assert spec.cluster is None
        assert "cluster" not in spec.to_dict()

    def test_expand_propagates_cluster(self):
        cluster = ClusterSpec(nodes=3, lb_policy="random")
        spec = self.base(cluster=cluster)
        condition = spec.expand()[0]
        assert condition.plan.cluster == cluster
        assert condition.to_plan().cluster == cluster

    def test_campaign_dict_round_trip_with_cluster(self):
        spec = self.base(cluster={"nodes": 2, "shards": 2})
        rebuilt = CampaignSpec.from_dict(spec.to_dict())
        assert rebuilt.cluster == spec.cluster
        assert rebuilt.content_hash() == spec.content_hash()

    def test_condition_dict_round_trip_with_cluster(self):
        spec = self.base(cluster=ClusterSpec(nodes=2))
        condition = spec.expand()[0]
        rebuilt = ConditionSpec(ExperimentPlan.from_dict(
            condition.plan.to_dict()))
        assert rebuilt == condition
        assert rebuilt.content_hash() == condition.content_hash()

    def test_cluster_changes_campaign_hash(self):
        plain = self.base()
        clustered = self.base(cluster=ClusterSpec(nodes=2))
        assert plain.content_hash() != clustered.content_hash()
