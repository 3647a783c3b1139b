"""Tests for the repro.api spec layer: validation, round-trips,
content-hash stability, fluent construction and sweeps."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api import (
    ExperimentPlan,
    HardwareSpec,
    LoadSpec,
    RunPolicy,
    WorkloadSpec,
    experiment,
)
from repro.cluster.spec import ClusterSpec
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    SERVER_BASELINE,
    server_with_smt,
)
from repro.errors import SpecValidationError
from repro.graph.spec import GraphTierSpec, ResiliencePolicy
from repro.loadgen.interarrival import ArrivalSpec


def small_plan(**policy):
    return (experiment("memcached")
            .client(LP_CLIENT)
            .load(qps=50_000, num_requests=80)
            .policy(runs=2, **policy)
            .build())


#: A representative spread of plans for round-trip/hash tests: every
#: workload, both clients, a server variant, workload parameters, a
#: custom warmup, and non-default policies.
PLAN_GRID = {
    "memcached-lp": lambda: small_plan(),
    "memcached-hp-smt": lambda: (
        experiment("memcached")
        .client(HP_CLIENT)
        .server(server_with_smt(True), label="SMTon")
        .load(qps=100_000, num_requests=120)
        .policy(runs=3, base_seed=77, label="HP-SMTon")
        .build()),
    "hdsearch": lambda: (
        experiment("hdsearch")
        .client("HP")
        .load(qps=1_500, num_requests=60, warmup_fraction=0.2)
        .build()),
    "socialnetwork": lambda: (
        experiment("socialnetwork")
        .client("LP")
        .load(qps=200, num_requests=50)
        .policy(runs=1)
        .build()),
    "synthetic-delay": lambda: (
        experiment("synthetic", added_delay_us=200)
        .client("LP")
        .load(qps=5_000, num_requests=60)
        .policy(runs=2, base_seed=5)
        .build()),
}


class TestWorkloadSpec:
    def test_unknown_workload_did_you_mean(self):
        with pytest.raises(SpecValidationError,
                           match="did you mean 'memcached'"):
            WorkloadSpec.create("memcachd")

    def test_unknown_workload_lists_registry(self):
        with pytest.raises(SpecValidationError, match="registered:"):
            WorkloadSpec.create("quake3")

    def test_unknown_parameter_names_valid_keys(self):
        with pytest.raises(
                SpecValidationError,
                match="valid parameters: added_delay_us"):
            WorkloadSpec.create("synthetic", addeddelay=5)

    def test_parameter_did_you_mean(self):
        with pytest.raises(SpecValidationError,
                           match="did you mean 'added_delay_us'"):
            WorkloadSpec.create("synthetic", added_delay=5)

    def test_workload_without_params_rejects_any(self):
        with pytest.raises(SpecValidationError,
                           match="unknown parameter 'added_delay_us'"):
            WorkloadSpec.create("memcached", added_delay_us=5.0)

    def test_int_params_normalize_to_float(self):
        a = WorkloadSpec.create("synthetic", added_delay_us=200)
        b = WorkloadSpec.create("synthetic", added_delay_us=200.0)
        assert a == b
        assert a.param_dict() == {"added_delay_us": 200.0}

    def test_type_errors_are_named(self):
        with pytest.raises(SpecValidationError, match="must be float"):
            WorkloadSpec.create("synthetic", added_delay_us="fast")

    def test_minimum_enforced(self):
        with pytest.raises(SpecValidationError, match=">= 0"):
            WorkloadSpec.create("synthetic", added_delay_us=-1.0)


class TestLoadSpec:
    def test_bad_qps_rejected(self):
        with pytest.raises(SpecValidationError):
            LoadSpec(qps=0)

    def test_bad_num_requests_rejected(self):
        with pytest.raises(SpecValidationError):
            LoadSpec(qps=100, num_requests=0)

    def test_bad_warmup_rejected(self):
        with pytest.raises(SpecValidationError):
            LoadSpec(qps=100, warmup_fraction=1.0)

    def test_unknown_generator_rejected_at_plan_level(self):
        with pytest.raises(SpecValidationError,
                           match="drives load with 'mutilate'"):
            experiment("memcached").load(generator="wrk2").build()

    def test_workload_generator_accepted_and_normalized(self):
        """Naming the workload's own generator is the same plan as
        the default -- one content hash, not two."""
        explicit = experiment("memcached").load(generator="mutilate").build()
        implicit = experiment("memcached").build()
        assert explicit == implicit
        assert explicit.content_hash() == implicit.content_hash()


def _cache_tier(**costs):
    return GraphTierSpec(name="cache", kind="cache", downstream=("leaf",),
                         hit_ratio=0.8, **costs)


#: field -> a spec built with that field set to the given number.
NUMERIC_FIELDS = {
    "qps": lambda v: LoadSpec(qps=v),
    "added_delay_us": lambda v: WorkloadSpec.create(
        "synthetic", added_delay_us=v),
    "hit_service_us": lambda v: _cache_tier(hit_service_us=v),
    "fill_penalty_us": lambda v: _cache_tier(fill_penalty_us=v),
    "timeout_us": lambda v: ResiliencePolicy(timeout_us=v, max_retries=1),
    "backoff_us": lambda v: ResiliencePolicy(
        timeout_us=100.0, max_retries=1, backoff_us=v),
    "hedge_after_us": lambda v: ResiliencePolicy(hedge_after_us=v,
                                                 hedges=1),
    "period_us": lambda v: ArrivalSpec(shape="diurnal", period_us=v,
                                       amplitude=0.5),
    "phase_us": lambda v: ArrivalSpec(shape="diurnal", period_us=1e4,
                                      amplitude=0.5, phase_us=v),
    "spike_start_us": lambda v: ArrivalSpec(
        shape="flash-crowd", spike_start_us=v, spike_duration_us=1e3,
        spike_factor=2.0),
    "spike_duration_us": lambda v: ArrivalSpec(
        shape="flash-crowd", spike_duration_us=v, spike_factor=2.0),
    "spike_factor": lambda v: ArrivalSpec(
        shape="flash-crowd", spike_duration_us=1e3, spike_factor=v),
}


class TestNonFiniteNumbers:
    """NaN passes every ``<``/``<=`` bound and no bound excludes
    infinity: each numeric spec field rejects both by name, at
    construction, before anything runs."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(SpecValidationError, match=field):
            NUMERIC_FIELDS[field](value)

    @pytest.mark.parametrize("field", sorted(NUMERIC_FIELDS))
    def test_finite_values_still_build(self, field):
        NUMERIC_FIELDS[field](5.0)


#: Every integer spec field, keyed by the name its error gives, with
#: a constructor that sets it to a value.
INTEGER_FIELDS = {
    "num_requests": lambda v: LoadSpec(qps=1.0, num_requests=v),
    "runs": lambda v: RunPolicy(runs=v),
    "base_seed": lambda v: RunPolicy(base_seed=v),
    "workers": lambda v: RunPolicy(workers=v),
    "resilience max_retries": lambda v: ResiliencePolicy(
        timeout_us=5.0, max_retries=v),
    "resilience hedges": lambda v: ResiliencePolicy(
        hedge_after_us=5.0, hedges=v),
    "cluster nodes": lambda v: ClusterSpec(nodes=v),
    "cluster shards": lambda v: ClusterSpec(shards=v),
}


class TestIntegerFields:
    """One integer check for every spec: a fractional value is not
    truncated, and NaN, infinity and bools fail validation by name
    instead of with a raw ``int()`` error."""

    @pytest.mark.parametrize("value", [2.7, math.nan, math.inf, True])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_rejected_naming_the_field(self, field, value):
        with pytest.raises(SpecValidationError,
                           match=f"{field} must be an integer"):
            INTEGER_FIELDS[field](value)

    @pytest.mark.parametrize("value", [2, 2.0, np.int64(2)])
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_integers_and_integral_floats_build(self, field, value):
        assert INTEGER_FIELDS[field](value) == INTEGER_FIELDS[field](2)

    def test_numpy_integer_nodes(self):
        spec = ClusterSpec(nodes=np.int64(4))
        assert spec.nodes == 4 and type(spec.nodes) is int


class TestHardwareSpec:
    def test_preset_names_resolve(self):
        spec = HardwareSpec(client="LP", server="baseline")
        assert spec.client == LP_CLIENT
        assert spec.server == SERVER_BASELINE

    def test_labels_default_to_config_names(self):
        spec = HardwareSpec(client=HP_CLIENT)
        assert spec.client_label == "HP"
        assert spec.server_label == SERVER_BASELINE.name


class TestRunPolicy:
    def test_seed_schedule(self):
        assert RunPolicy(runs=3, base_seed=10).seed_schedule() == \
            (10, 11, 12)

    def test_bad_runs_rejected(self):
        with pytest.raises(SpecValidationError):
            RunPolicy(runs=0)

    @pytest.mark.parametrize("seed", [-1, -1.0, np.int64(-7)])
    def test_negative_base_seed_rejected_by_name(self, seed):
        """numpy seeds only non-negative integers: a negative base
        seed fails validation, not the first repetition's seeding."""
        with pytest.raises(SpecValidationError,
                           match="base_seed must be >= 0"):
            RunPolicy(base_seed=seed)
        with pytest.raises(SpecValidationError,
                           match="base_seed must be >= 0"):
            RunPolicy.from_dict({"runs": 1, "base_seed": seed})

    def test_plan_testbed_rejects_a_negative_seed(self):
        plan = (experiment("memcached").client("LP")
                .load(qps=50_000, num_requests=50)
                .policy(runs=1).build())
        with pytest.raises(SpecValidationError, match="seed must be >= 0"):
            plan.testbed(seed=-1)
        assert plan.testbed(seed=0).run().requests > 0


class TestRunPolicyObservability:
    def test_defaults_are_unobserved(self):
        policy = RunPolicy()
        assert policy.sink == "columnar"
        assert policy.trace is False
        assert policy.observed is False
        assert policy.observability() is None

    def test_unknown_sink_did_you_mean(self):
        with pytest.raises(SpecValidationError,
                           match="did you mean 'columnar'"):
            RunPolicy(sink="columner")

    def test_default_to_dict_omits_obs_fields(self):
        # Hash/store-key stability: pre-observability plans must keep
        # their exact serialized form.
        payload = RunPolicy(runs=2, base_seed=3).to_dict()
        assert "sink" not in payload
        assert "trace" not in payload

    def test_non_default_fields_round_trip(self):
        policy = RunPolicy(sink="streaming", trace=True)
        payload = policy.to_dict()
        assert payload["sink"] == "streaming"
        assert payload["trace"] is True
        assert RunPolicy.from_dict(payload) == policy

    def test_observability_builds_fresh_contexts(self):
        policy = RunPolicy(sink="streaming", trace=True)
        first, second = policy.observability(), policy.observability()
        assert first is not second
        assert first.tracing and first.sink_name == "streaming"

    def test_builder_threads_sink_and_trace(self):
        plan = small_plan(sink="streaming", trace=True)
        assert plan.policy.sink == "streaming"
        assert plan.policy.trace is True
        assert plan.policy.observed is True

    def test_obs_fields_do_not_change_default_hash(self):
        # Explicitly passing the defaults serializes identically, so
        # existing content hashes (and store keys) stay byte-stable.
        base = small_plan()
        explicit = small_plan(sink="columnar", trace=False)
        assert explicit.content_hash() == base.content_hash()


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(PLAN_GRID))
    def test_json_round_trip_is_identity(self, name):
        plan = PLAN_GRID[name]()
        assert ExperimentPlan.from_json(plan.to_json()) == plan

    @pytest.mark.parametrize("name", sorted(PLAN_GRID))
    def test_round_trip_preserves_hash(self, name):
        plan = PLAN_GRID[name]()
        rebuilt = ExperimentPlan.from_dict(
            json.loads(json.dumps(plan.to_dict())))
        assert rebuilt.content_hash() == plan.content_hash()

    def test_invalid_json_rejected(self):
        with pytest.raises(SpecValidationError):
            ExperimentPlan.from_json("{not json")

    def test_missing_section_rejected(self):
        with pytest.raises(SpecValidationError, match="missing"):
            ExperimentPlan.from_dict({"workload": {"name": "memcached"}})

    def test_misspelled_section_rejected(self):
        """A hand-edited plan with a misspelled section must fail
        loudly, not silently run with the default policy."""
        data = small_plan().to_dict()
        data["run_policy"] = data.pop("policy")
        with pytest.raises(SpecValidationError,
                           match="unknown key.*run_policy"):
            ExperimentPlan.from_dict(data)

    @pytest.mark.parametrize("section,bad_key", [
        ("workload", "parameters"),
        ("load", "warmup"),
        ("hardware", "clientconfig"),
        ("policy", "seed"),
    ])
    def test_misspelled_field_rejected(self, section, bad_key):
        data = small_plan().to_dict()
        data[section][bad_key] = 1
        with pytest.raises(SpecValidationError, match="unknown key"):
            ExperimentPlan.from_dict(data)

    def test_policy_section_may_be_omitted(self):
        data = small_plan().to_dict()
        del data["policy"]
        plan = ExperimentPlan.from_dict(data)
        assert plan.policy == RunPolicy()

    def test_null_labels_mean_default_not_the_string_none(self):
        """JSON null for a label falls back to the config name /
        empty label, it must never become the literal 'None'."""
        data = small_plan().to_dict()
        data["hardware"]["client_label"] = None
        data["hardware"]["server_label"] = None
        data["policy"]["label"] = None
        data["load"]["generator"] = None
        plan = ExperimentPlan.from_dict(data)
        assert plan.hardware.client_label == "LP"
        assert plan.hardware.server_label == SERVER_BASELINE.name
        assert plan.policy.label == ""
        assert plan.load.generator == "default"
        assert plan == small_plan()


class TestContentHash:
    def test_stable_across_instances(self):
        assert small_plan().content_hash() == small_plan().content_hash()

    @pytest.mark.parametrize("mutate", [
        lambda p: p.with_qps(60_000),
        lambda p: p.with_params(),
        lambda p: p.with_client("HP"),
        lambda p: p.with_server(server_with_smt(True)),
        lambda p: p.with_seed(9),
        lambda p: p.with_label("other"),
        lambda p: p.with_load(num_requests=81),
        lambda p: p.with_policy(runs=3),
    ])
    def test_hash_tracks_every_section(self, mutate):
        plan = small_plan()
        changed = mutate(plan)
        if changed == plan:  # with_params() no-op keeps identity
            assert changed.content_hash() == plan.content_hash()
        else:
            assert changed.content_hash() != plan.content_hash()

    def test_stable_across_processes(self):
        """The hash is a store/cache key: it must not depend on
        PYTHONHASHSEED or anything else process-local."""
        plan = PLAN_GRID["synthetic-delay"]()
        src = str(Path(repro.__file__).resolve().parents[1])
        code = ("import sys\n"
                "from repro.api import ExperimentPlan\n"
                "plan = ExperimentPlan.from_json(sys.stdin.read())\n"
                "print(plan.content_hash())\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = src
        env["PYTHONHASHSEED"] = "12345"
        proc = subprocess.run(
            [sys.executable, "-c", code], input=plan.to_json(),
            capture_output=True, text=True, env=env, check=True)
        assert proc.stdout.strip() == plan.content_hash()


class TestFluentBuilder:
    def test_defaults_come_from_the_registry(self):
        plan = experiment("hdsearch").build()
        assert plan.load.qps == 1_000.0
        assert plan.load.num_requests == 1_000
        assert plan.hardware.client == LP_CLIENT
        assert plan.policy.runs == 50

    def test_chaining_returns_the_builder(self):
        builder = experiment("memcached")
        assert builder.client("HP") is builder
        assert builder.load(qps=10_000) is builder
        assert builder.policy(runs=2) is builder

    def test_params_merge(self):
        plan = (experiment("synthetic", added_delay_us=100)
                .params(added_delay_us=300.0)
                .build())
        assert plan.workload.param_dict() == {"added_delay_us": 300.0}

    def test_invalid_workload_fails_on_entry(self):
        with pytest.raises(SpecValidationError):
            experiment("memchached")

    def test_top_level_reexports(self):
        assert repro.experiment is experiment
        assert repro.ExperimentPlan is ExperimentPlan


class TestVariants:
    def test_qps_axis(self):
        plans = small_plan().variants(qps=[10_000, 20_000])
        assert [p.load.qps for p in plans] == [10_000.0, 20_000.0]

    def test_param_axis_with_qps_innermost(self):
        base = (experiment("synthetic")
                .load(qps=5_000, num_requests=40)
                .policy(runs=1).build())
        plans = base.variants(qps=[5_000, 10_000],
                              added_delay_us=[0.0, 100.0])
        assert [(p.workload.param_dict()["added_delay_us"], p.load.qps)
                for p in plans] == [
                    (0.0, 5_000.0), (0.0, 10_000.0),
                    (100.0, 5_000.0), (100.0, 10_000.0)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(SpecValidationError):
            small_plan().variants(bogus_knob=[1, 2])

    def test_no_axes_is_self(self):
        plans = small_plan().variants()
        assert plans == [small_plan()]
