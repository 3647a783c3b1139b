"""Tests for C-state governor behaviour."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.presets import HP_CLIENT, LP_CLIENT, SERVER_BASELINE
from repro.config.presets import server_with_c1e
from repro.errors import ConfigurationError
from repro.hardware.cstates import CStateGovernor
from repro.parameters import CStateSpec, SkylakeParameters, cstates_by_name


class TestSelection:
    def test_poll_config_never_sleeps(self, params):
        governor = CStateGovernor(params, HP_CLIENT)
        decision = governor.select(10_000.0)
        assert decision.state.name == "C0"
        assert decision.wake_latency_us == 0.0

    def test_short_gap_selects_shallow_state(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        decision = governor.select(3.0)
        assert decision.state.name == "C1"

    def test_medium_gap_selects_c1e(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        decision = governor.select(100.0)
        assert decision.state.name == "C1E"

    def test_long_gap_selects_c6(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        decision = governor.select(5_000.0)
        assert decision.state.name == "C6"
        assert decision.wake_latency_us == pytest.approx(133.0)

    def test_zero_gap_stays_c0(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        assert governor.select(0.0).state.name == "C0"

    def test_negative_gap_treated_as_zero(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        assert governor.select(-5.0).wake_latency_us == 0.0

    def test_wake_latency_capped_by_gap(self, params):
        """A core cannot pay more exit latency than it slept."""
        governor = CStateGovernor(params, LP_CLIENT)
        decision = governor.select(25.0)
        assert decision.wake_latency_us <= 25.0

    def test_server_baseline_caps_at_c1(self, params):
        governor = CStateGovernor(params, SERVER_BASELINE)
        decision = governor.select(100_000.0)
        assert decision.state.name == "C1"

    def test_c1e_server_variant_reaches_c1e(self, params):
        governor = CStateGovernor(params, server_with_c1e(True))
        decision = governor.select(1_000.0)
        assert decision.state.name == "C1E"


class TestLatencyLimit:
    def test_limit_excludes_deep_states(self, params):
        governor = CStateGovernor(params, LP_CLIENT, latency_limit_us=20.0)
        decision = governor.select(100_000.0)
        assert decision.state.name == "C1E"

    def test_tight_limit_keeps_only_c1(self, params):
        governor = CStateGovernor(params, LP_CLIENT, latency_limit_us=2.0)
        assert governor.select(100_000.0).state.name == "C1"

    def test_impossible_limit_falls_back_to_c0(self, params):
        governor = CStateGovernor(params, LP_CLIENT, latency_limit_us=0.5)
        decision = governor.select(100_000.0)
        assert decision.state.name == "C0"


class TestPredictionNoise:
    def test_noise_requires_rng(self, params):
        governor = CStateGovernor(params, LP_CLIENT)
        names = {governor.select(550.0).state.name for _ in range(20)}
        assert names == {"C1E"}  # deterministic without rng

    def test_noise_can_flip_border_decisions(self, params, rng):
        governor = CStateGovernor(params, LP_CLIENT)
        names = {governor.select(550.0, rng).state.name
                 for _ in range(200)}
        assert "C6" in names and "C1E" in names

    def test_tickless_off_limits_prediction(self, params):
        """Non-tickless kernels bound sleep depth at the tick period."""
        governor = CStateGovernor(params, LP_CLIENT)  # tickless off
        # Gap beyond the 4 ms tick: still selectable because the C6
        # residency (600us) is below the tick limit.
        assert governor.select(100_000.0).state.name == "C6"


class TestTable:
    def test_skylake_table_names(self):
        table = cstates_by_name()
        assert set(table) == {"C0", "C1", "C1E", "C6"}

    def test_exit_latencies_monotone(self, params):
        latencies = [s.exit_latency_us for s in params.cstate_table()]
        assert latencies == sorted(latencies)

    def test_residencies_monotone(self, params):
        residencies = [s.target_residency_us
                       for s in params.cstate_table()]
        assert residencies == sorted(residencies)

    def test_enabled_states_filtered_by_config(self, params):
        governor = CStateGovernor(params, SERVER_BASELINE)
        names = [s.name for s in governor.enabled_states]
        assert names == ["C0", "C1"]


# ---------------------------------------------------------------------------
# The selection rule: bisection over the ascending residencies
# ---------------------------------------------------------------------------
_NAMES = ("C0", "C1", "C1E", "C6")

#: Every state enabled, no tick limit: the prediction is the gap.
_TICKLESS = replace(LP_CLIENT, tickless=True)


def _table(residencies, latencies):
    return tuple(
        CStateSpec(_NAMES[i % len(_NAMES)], exit_latency_us=latency,
                   target_residency_us=residency, power_relative=0.5)
        for i, (residency, latency) in enumerate(zip(residencies,
                                                     latencies)))


def _governor(table):
    params = type("TableParameters", (SkylakeParameters,),
                  {"cstate_table": lambda self: table})()
    return CStateGovernor(params, _TICKLESS)


def _scan(table, predicted):
    """The reference rule: the last state whose target residency is at
    most the prediction, the first when none is."""
    chosen = table[0]
    for spec in table:
        if spec.target_residency_us <= predicted:
            chosen = spec
    return chosen


def _probes(residencies):
    """Every threshold, just below each, between each distinct pair,
    below the first and above the last."""
    distinct = sorted(set(residencies))
    values = [0.0, distinct[0] / 2.0, distinct[-1] + 1.0,
              distinct[-1] * 2.0 + 7.0]
    for low, high in zip(distinct, distinct[1:]):
        values.append((low + high) / 2.0)
    for residency in distinct:
        values.append(residency)
        if residency > 0.0:
            values.append(math.nextafter(residency, -math.inf))
    return values


_RESIDENCY = st.sampled_from((0.0, 0.5, 2.0, 20.0, 600.0)) | st.floats(
    0.0, 1e4, allow_nan=False)


class TestSelectionRule:
    @given(residencies=st.lists(_RESIDENCY, min_size=1, max_size=7)
           .map(sorted),
           latencies=st.lists(st.floats(0.0, 200.0), min_size=7,
                              max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_bisection_picks_the_scanned_state(self, residencies,
                                               latencies):
        """Ties included: bisect_right lands past equal residencies,
        on the last of them, where the scan ends too."""
        table = _table(residencies, latencies)
        governor = _governor(table)
        for predicted in _probes(residencies):
            wake, state = governor.wake_and_state(predicted)
            assert state is _scan(table, predicted)
            assert wake == min(state.exit_latency_us, predicted)

    def test_skylake_tables_at_every_threshold(self, params):
        for config in (LP_CLIENT, _TICKLESS, SERVER_BASELINE,
                       server_with_c1e(True)):
            for limit in (None, 20.0, 2.0, 0.5):
                governor = CStateGovernor(params, config,
                                          latency_limit_us=limit)
                table = tuple(governor.enabled_states)
                residencies = [s.target_residency_us for s in table]
                for predicted in _probes(residencies):
                    _, state = governor.wake_and_state(predicted)
                    assert state is _scan(table, min(predicted, 4_000.0)
                                          if not config.tickless
                                          else predicted)

    def test_descending_table_rejected(self):
        table = _table((0.0, 20.0, 2.0), (0.0, 10.0, 2.0))
        with pytest.raises(ConfigurationError, match="ascending"):
            _governor(table)

    def test_ties_accepted(self):
        table = _table((0.0, 2.0, 2.0, 600.0), (0.0, 2.0, 3.0, 133.0))
        governor = _governor(table)
        assert governor.wake_and_state(2.0)[1] is table[2]
        assert governor.wake_and_state(1.0)[1] is table[0]
