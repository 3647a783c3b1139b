"""Tests for campaign specs: expansion, hashing, dict/JSON loading."""

import hashlib
import json
import math

import pytest

from repro.api import ExperimentPlan, experiment
from repro.campaign.presets import campaign_by_name, preset_names
from repro.campaign.serialize import (
    experiment_result_from_dict,
    experiment_result_to_dict,
    run_metrics_from_dict,
    run_metrics_to_dict,
)
from repro.campaign.spec import CampaignSpec, ConditionSpec, cell_seed
from repro.config.presets import (
    HP_CLIENT,
    LP_CLIENT,
    SERVER_BASELINE,
    server_with_smt,
)
from repro.config.serialize import (
    hardware_config_from_dict,
    hardware_config_to_dict,
)
from repro.core.testbed import RunMetrics
from repro.errors import ExperimentError, SpecValidationError


def small_spec(**overrides):
    defaults = dict(
        name="test-campaign",
        workload="memcached",
        conditions={"SMToff": server_with_smt(False),
                    "SMTon": server_with_smt(True)},
        qps_list=(10_000, 50_000),
        clients={"LP": LP_CLIENT, "HP": HP_CLIENT},
        runs=3,
        num_requests=80,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


class TestHardwareConfigSerialization:
    def test_round_trip(self):
        for config in (LP_CLIENT, HP_CLIENT, SERVER_BASELINE,
                       server_with_smt(True)):
            data = hardware_config_to_dict(config)
            assert hardware_config_from_dict(data) == config

    def test_round_trip_survives_json(self):
        data = json.loads(json.dumps(hardware_config_to_dict(HP_CLIENT)))
        assert hardware_config_from_dict(data) == HP_CLIENT

    def test_preset_names(self):
        assert hardware_config_from_dict("LP") == LP_CLIENT
        assert hardware_config_from_dict("HP") == HP_CLIENT
        assert hardware_config_from_dict("baseline") == SERVER_BASELINE

    def test_unknown_preset_rejected(self):
        with pytest.raises(ExperimentError):
            hardware_config_from_dict("XP")

    def test_invalid_dict_rejected(self):
        with pytest.raises(ExperimentError):
            hardware_config_from_dict({"name": "broken"})


class TestResultSerialization:
    def metrics(self):
        return RunMetrics(avg_us=91.25, p99_us=210.5, true_avg_us=88.0,
                          true_p99_us=205.125, requests=72, seed=17,
                          server_utilization=0.23)

    def test_run_metrics_round_trip(self):
        metrics = self.metrics()
        assert run_metrics_from_dict(
            run_metrics_to_dict(metrics)) == metrics

    def test_experiment_result_round_trip_is_exact(self):
        result = (experiment("memcached").client(LP_CLIENT)
                  .load(qps=50_000, num_requests=60)
                  .policy(runs=3, base_seed=5, label="LP-test").run())
        data = json.loads(json.dumps(experiment_result_to_dict(result)))
        rebuilt = experiment_result_from_dict(data)
        assert rebuilt.label == result.label
        assert rebuilt.workload == result.workload
        assert rebuilt.qps == result.qps
        # JSON floats round-trip IEEE doubles exactly.
        assert rebuilt.runs == result.runs


class TestExpansion:
    def test_cartesian_size_and_order(self):
        spec = small_spec()
        conditions = spec.expand()
        assert len(conditions) == spec.size() == 2 * 2 * 2
        # Clients x conditions x qps, in declaration order.
        assert [(c.plan.hardware.client_label,
                 c.plan.hardware.server_label, c.qps)
                for c in conditions[:3]] == [
                    ("LP", "SMToff", 10_000.0),
                    ("LP", "SMToff", 50_000.0),
                    ("LP", "SMTon", 10_000.0)]

    def test_seeds_match_the_figure_studies(self):
        """Campaign seeds must equal the legacy grid seeds, or store
        hits would not be interchangeable with study cells."""
        for condition in small_spec().expand():
            hardware = condition.plan.hardware
            assert condition.plan.policy.base_seed == cell_seed(
                0, hardware.client_label, hardware.server_label,
                condition.qps)

    def test_seed_depends_on_identity_not_position(self):
        wide = {c.content_hash(): c for c in small_spec().expand()}
        narrow = small_spec(qps_list=(50_000,)).expand()
        for condition in narrow:
            assert condition.content_hash() in wide

    def test_base_seed_shifts_all_conditions(self):
        base0 = small_spec().expand()
        base9 = small_spec(base_seed=9).expand()
        for a, b in zip(base0, base9):
            assert (b.plan.policy.base_seed
                    == a.plan.policy.base_seed + 9)
            assert a.content_hash() != b.content_hash()

    def test_extra_kwargs_flow_into_conditions(self):
        spec = small_spec(workload="synthetic",
                          extra={"added_delay_us": 100.0})
        condition = spec.expand()[0]
        assert condition.plan.workload.param_dict() == {
            "added_delay_us": 100.0}

    def test_label(self):
        condition = small_spec().expand()[0]
        assert condition.label == "LP-SMToff"


class TestContentHash:
    def test_stable_across_instances(self):
        a = small_spec().expand()[0]
        b = small_spec().expand()[0]
        assert a.content_hash() == b.content_hash()

    def test_round_trip_preserves_hash(self):
        condition = small_spec().expand()[0]
        rebuilt = ConditionSpec(ExperimentPlan.from_json(
            condition.plan.to_json()))
        assert rebuilt == condition
        assert rebuilt.content_hash() == condition.content_hash()

    @pytest.mark.parametrize("override", [
        {"runs": 4}, {"num_requests": 81}, {"base_seed": 1},
        {"workload": "synthetic"},
        # A universal param valid for memcached: proves `extra` alone
        # perturbs the hash, with no other knob changing.
        {"extra": {"warmup_fraction": 0.2}},
        {"workload": "synthetic", "extra": {"added_delay_us": 10.0}},
    ])
    def test_hash_tracks_every_knob(self, override):
        baseline = {c.content_hash() for c in small_spec().expand()}
        changed = small_spec(**override).expand()
        assert all(c.content_hash() not in baseline for c in changed)

    def test_shared_qps_points_share_hashes(self):
        """A different sweep still hits the store for overlapping
        points -- condition identity ignores sweep membership."""
        baseline = {c.content_hash() for c in small_spec().expand()}
        changed = small_spec(qps_list=(10_000, 60_000)).expand()
        shared = [c for c in changed if c.qps == 10_000]
        fresh = [c for c in changed if c.qps == 60_000]
        assert all(c.content_hash() in baseline for c in shared)
        assert all(c.content_hash() not in baseline for c in fresh)

    def test_campaign_hash_stable(self):
        assert (small_spec().content_hash()
                == small_spec().content_hash())

    def test_int_and_float_extras_are_the_same_condition(self):
        """JSON has one number type: a spec file with integer extras
        must hit the store rows a float-built campaign produced."""
        as_int = small_spec(workload="synthetic",
                            extra={"added_delay_us": 200})
        as_float = small_spec(workload="synthetic",
                              extra={"added_delay_us": 200.0})
        assert ([c.content_hash() for c in as_int.expand()]
                == [c.content_hash() for c in as_float.expand()])


class TestFromDict:
    def spec_dict(self):
        return {
            "name": "file-campaign",
            "workload": "memcached",
            "clients": ["LP", "HP"],
            "conditions": {
                "SMToff": {"knob": "smt", "enabled": False},
                "SMTon": {"knob": "smt", "enabled": True},
            },
            "qps": [10_000, 50_000],
            "runs": 3,
            "num_requests": 80,
        }

    def test_shorthand_equals_programmatic(self):
        from_file = CampaignSpec.from_dict(self.spec_dict())
        programmatic = small_spec(name="file-campaign")
        assert ([c.content_hash() for c in from_file.expand()]
                == [c.content_hash() for c in programmatic.expand()])

    def test_json_round_trip(self):
        spec = small_spec()
        rebuilt = CampaignSpec.from_json(spec.to_json())
        assert rebuilt.content_hash() == spec.content_hash()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(self.spec_dict()))
        spec = CampaignSpec.load(str(path))
        assert spec.name == "file-campaign"
        assert spec.size() == 8

    def test_clients_default_to_lp_hp(self):
        data = self.spec_dict()
        del data["clients"]
        spec = CampaignSpec.from_dict(data)
        assert list(spec.clients) == ["LP", "HP"]

    def test_c1e_shorthand(self):
        data = self.spec_dict()
        data["conditions"] = {"C1Eon": {"knob": "c1e", "enabled": True}}
        spec = CampaignSpec.from_dict(data)
        assert "C1E" in spec.conditions["C1Eon"].enabled_cstates

    def test_baseline_shorthand(self):
        data = self.spec_dict()
        data["conditions"] = {"baseline": "baseline"}
        spec = CampaignSpec.from_dict(data)
        assert spec.conditions["baseline"] == SERVER_BASELINE

    def test_unknown_knob_rejected(self):
        data = self.spec_dict()
        data["conditions"] = {"x": {"knob": "turbo"}}
        with pytest.raises(ExperimentError):
            CampaignSpec.from_dict(data)

    def test_missing_fields_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec.from_dict({"name": "x", "workload": "memcached"})

    def test_invalid_json_rejected(self):
        with pytest.raises(ExperimentError):
            CampaignSpec.from_json("{not json")


class TestValidation:
    @pytest.mark.parametrize("override", [
        {"runs": 0}, {"num_requests": 0}, {"qps_list": ()},
        {"conditions": {}}, {"clients": {}}, {"name": ""},
    ])
    def test_bad_specs_rejected(self, override):
        with pytest.raises(ExperimentError):
            small_spec(**override)

    @pytest.mark.parametrize("field, value", [
        ("runs", 2.7), ("runs", math.nan), ("runs", True),
        ("num_requests", 10.5), ("num_requests", math.inf),
        ("base_seed", 1.5), ("base_seed", -1), ("base_seed", -1.0),
    ])
    def test_integer_fields_rejected_by_name(self, field, value):
        """A fractional count is not truncated, and NaN, infinity and
        negative seeds fail validation by name, not with a raw int()
        error or at the first repetition."""
        with pytest.raises(SpecValidationError, match=field):
            small_spec(**{field: value})
        data = TestFromDict().spec_dict()
        data[field] = value
        with pytest.raises(SpecValidationError, match=field):
            CampaignSpec.from_dict(data)
        with pytest.raises(SpecValidationError, match=field):
            small_spec().with_overrides(**{field: value})

    def test_integral_floats_are_the_same_campaign(self):
        data = TestFromDict().spec_dict()
        spec = CampaignSpec.from_dict(
            {**data, "runs": 3.0, "num_requests": 80.0, "base_seed": 0.0})
        assert (spec.runs, spec.num_requests, spec.base_seed) == (3, 80, 0)
        assert type(spec.runs) is int
        assert (spec.content_hash()
                == CampaignSpec.from_dict(data).content_hash())

    def test_with_overrides(self):
        spec = small_spec().with_overrides(runs=7, base_seed=3)
        assert spec.runs == 7 and spec.base_seed == 3
        assert small_spec().runs == 3  # original untouched


def test_cell_seed_scheme_is_pinned():
    """The seed derivation is a compatibility contract: changing it
    would orphan every stored result.  Pin it to the formula the seed
    repo's figure grids used."""
    from repro.sim.random import _stable_name_key

    key = _stable_name_key("LP/SMToff/10000")
    assert cell_seed(0, "LP", "SMToff", 10_000) == (key % 1_000_003) * 10_000
    assert cell_seed(7, "LP", "SMToff", 10_000) == (
        7 + (key % 1_000_003) * 10_000)


#: preset -> first 16 hex digits of sha256 over the concatenated plan
#: hashes of its expansion, captured when conditions still compiled
#: their own fields into plans.  Expansion must build the same plans
#: byte for byte: the simulation and every seed block depend on them.
PRESET_PLAN_DIGESTS = {
    "hdsearch-c1e": "579f5af0a819973a",
    "hdsearch-cluster": "2c777a685145afbd",
    "hdsearch-graph": "468dd1545fe54bb5",
    "hdsearch-smt": "48e9852cdd62f2f6",
    "memcached-c1e": "2ee0beea5aba0c2e",
    "memcached-cached": "7e4391afa6729233",
    "memcached-cluster": "6c0f1825fdc1c71f",
    "memcached-smt": "785ad3b0e0db2fe2",
    "socialnetwork": "68e8d65188121c69",
    "synthetic": "55c8723871ee5b7d",
}


def test_every_preset_has_a_pinned_digest():
    assert sorted(preset_names()) == sorted(PRESET_PLAN_DIGESTS)
    assert sum(len(campaign_by_name(name).expand())
               for name in PRESET_PLAN_DIGESTS) == 164


@pytest.mark.parametrize("name", sorted(PRESET_PLAN_DIGESTS))
def test_preset_plans_are_byte_stable(name):
    conditions = campaign_by_name(name).expand()
    joined = "".join(c.to_plan().content_hash() for c in conditions)
    assert (hashlib.sha256(joined.encode()).hexdigest()[:16]
            == PRESET_PLAN_DIGESTS[name])
