"""Tests for the vectorized fused-dispatch kernel (repro.sim.kernel).

The acceptance bar throughout is **bit-identity with the reference
engine**: same firing order, same RNG draw order, same float
arithmetic, for any workload and any mix of fast-path and cancellable
events -- including events cancelled while the kernel is mid-run.
The kernel is the default engine (``engine="vectorized"``), so a
correctness bug here silently corrupts stored campaign results; these
tests pin the equivalence from the event-loop primitives all the way
to cross-process full-payload hashes under a hostile
``PYTHONHASHSEED``.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import types
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.api import ClusterSpec, experiment
from repro.api.specs import RunPolicy
from repro.campaign.serialize import experiment_result_to_dict
from repro.campaign.spec import CampaignSpec
from repro.config.serialize import content_hash
from repro.config.presets import LP_CLIENT, SERVER_BASELINE
from repro.cluster.fanout import FanoutService
from repro.errors import ExperimentError, SpecValidationError
from repro.graph import graph_preset
from repro.graph.cache import CacheTier
from repro.graph.resilience import ResilientDispatcher
from repro.graph.spec import GraphTierSpec, ResiliencePolicy, ServiceGraphSpec
from repro.graph.testbed import GraphStage, ServiceGraph
from repro.parallel.runner import run_sharded
from repro.server.request import Request
from repro.sim.engine import Simulator, _Train
from repro.sim.kernel import (
    DEFAULT_ENGINE,
    RECORD_CHUNK,
    KernelSimulator,
    engine_names,
    make_simulator,
    validate_engine_name,
)
from repro.telemetry.columns import COLUMN_FIELDS
from repro.workloads.registry import workload_by_name

WORKLOADS = ("hdsearch", "memcached", "socialnetwork", "synthetic")

ENGINES = ("reference", "vectorized")


# ---------------------------------------------------------------------------
# Engine registry and spec plumbing
# ---------------------------------------------------------------------------
class TestEngineRegistry:
    def test_both_engines_registered(self):
        assert set(ENGINES) == set(engine_names())
        assert DEFAULT_ENGINE == "vectorized"

    def test_make_simulator_types(self):
        assert type(make_simulator()) is KernelSimulator
        assert type(make_simulator("reference")) is Simulator
        assert type(make_simulator("vectorized")) is KernelSimulator

    def test_unknown_engine_gets_did_you_mean(self):
        with pytest.raises(SpecValidationError) as exc:
            validate_engine_name("vectorised")
        assert "vectorized" in str(exc.value)

    def test_run_policy_omits_default_engine(self):
        policy = RunPolicy(runs=1, base_seed=7)
        assert policy.engine == DEFAULT_ENGINE
        assert "engine" not in policy.to_dict()
        # Pre-engine payloads (no "engine" key) load as the default.
        assert RunPolicy.from_dict(policy.to_dict()).engine == DEFAULT_ENGINE

    def test_run_policy_round_trips_non_default_engine(self):
        policy = RunPolicy(runs=1, base_seed=7, engine="reference")
        data = policy.to_dict()
        assert data["engine"] == "reference"
        assert RunPolicy.from_dict(data) == policy

    def test_run_policy_rejects_unknown_engine(self):
        with pytest.raises(SpecValidationError):
            RunPolicy(engine="warp-drive")

    def test_condition_spec_engine_hash_stability(self):
        """An explicit default engine must not perturb content hashes:
        stored pre-engine campaign results stay addressable.  Both
        engines produce the same numbers, so the reference engine's
        distinct key never serves a result the model did not
        produce."""
        def condition(**overrides):
            return CampaignSpec(
                name="engine", workload="memcached",
                clients={"LP": LP_CLIENT},
                conditions={"baseline": SERVER_BASELINE},
                qps_list=(50_000.0,), runs=1, num_requests=40,
                base_seed=7, **overrides).expand()[0]

        base = condition()
        explicit = condition(engine="vectorized")
        assert "engine" not in explicit.plan.to_dict()["policy"]
        assert explicit.content_hash() == base.content_hash()
        reference = condition(engine="reference")
        assert reference.plan.to_dict()["policy"]["engine"] == "reference"
        assert reference.content_hash() != base.content_hash()

    def test_builder_threads_engine_into_plan(self):
        plan = (experiment("memcached")
                .client("LP")
                .load(qps=50_000.0, num_requests=40)
                .policy(runs=1, base_seed=7, engine="reference")
                .build())
        assert plan.policy.engine == "reference"


# ---------------------------------------------------------------------------
# Event-loop primitives: both engines, identical semantics
# ---------------------------------------------------------------------------
def _engaged_kernel():
    """A kernel whose run() takes the fused loop: an adopted, never
    started generator makes its dispatch non-empty."""
    sim = workload_by_name("synthetic").build_testbed(
        seed=1, client_config=LP_CLIENT, server_config=SERVER_BASELINE,
        qps=10_000, num_requests=10, engine="vectorized").sim
    assert sim._build_dispatch()
    return sim


def _both_engines():
    return [Simulator(), _engaged_kernel()]


@pytest.fixture
def fused_loops(monkeypatch):
    """The simulators that entered the kernel's fused loop, in order."""
    entered = []
    run_kernel = KernelSimulator._run_kernel

    def spy(self, dispatch):
        entered.append(self)
        return run_kernel(self, dispatch)

    monkeypatch.setattr(KernelSimulator, "_run_kernel", spy)
    return entered


class TestTieBreaking:
    def test_identical_timestamps_fire_in_insertion_order(self,
                                                          fused_loops):
        """Fast-path (4-tuple) and cancellable (3-tuple) entries at the
        exact same time must fire in seq order on both engines."""
        logs = []
        sims = _both_engines()
        for sim in sims:
            fired = []
            sim.post_at(5.0, fired.append, "post-a")
            sim.schedule_at(5.0, fired.append, "sched-b")
            sim.post_at(5.0, fired.append, "post-c")
            sim.schedule_at(5.0, fired.append, "sched-d")
            sim.post_at(2.0, fired.append, "early")
            count = sim.run()
            assert count == 5
            assert sim.now == 5.0
            logs.append(fired)
        assert logs[0] == ["early", "post-a", "sched-b", "post-c", "sched-d"]
        assert logs[0] == logs[1]
        assert fused_loops == sims[1:]

    def test_ties_created_during_run_preserve_order(self, fused_loops):
        """Callbacks posting new work at the current time: the new
        entry's seq is larger, so it fires after anything already
        queued at that time -- on both engines."""
        logs = []
        sims = _both_engines()
        for sim in sims:
            fired = []

            def chain(tag, sim=sim, fired=fired):
                fired.append(tag)
                if tag == "first":
                    sim.post(0.0, chain, "nested")

            sim.post_at(3.0, chain, "first")
            sim.post_at(3.0, chain, "second")
            sim.run()
            logs.append(fired)
        assert logs[0] == ["first", "second", "nested"]
        assert logs[0] == logs[1]
        assert fused_loops == sims[1:]


class TestCancellationMidRun:
    def test_cancel_pending_event_from_callback(self, fused_loops):
        """A callback cancelling a later event: the kernel must see the
        cancellation even though the entry is already heap-resident."""
        logs = []
        sims = _both_engines()
        for sim in sims:
            fired = []
            victim = sim.schedule_at(10.0, fired.append, "victim")
            sim.post_at(5.0, lambda: victim.cancel())
            sim.schedule_at(15.0, fired.append, "survivor")
            count = sim.run()
            assert count == 2  # the cancel-er and the survivor
            assert victim.cancelled and not victim.fired
            logs.append(fired)
        assert logs[0] == ["survivor"]
        assert logs[0] == logs[1]
        assert fused_loops == sims[1:]

    def test_cancel_same_timestamp_later_entry(self, fused_loops):
        """Cancelling an event that shares the current timestamp (it
        is next in the tie run) must still suppress it."""
        sims = _both_engines()
        for sim in sims:
            fired = []
            handles = {}

            def killer(fired=fired, handles=handles):
                fired.append("killer")
                handles["victim"].cancel()

            sim.post_at(7.0, killer)
            handles["victim"] = sim.schedule_at(7.0, fired.append, "victim")
            sim.post_at(7.0, fired.append, "after")
            sim.run()
            assert fired == ["killer", "after"]
        assert fused_loops == sims[1:]

    def test_cancellation_mid_batch_in_workload(self):
        """Cancellable events injected into a real workload run: the
        kernel must fall back to scalar for them mid-run and still
        reproduce the reference metrics bit-identically."""
        results = {}
        for engine in ENGINES:
            testbed = workload_by_name("memcached").build_testbed(
                seed=1234, client_config=LP_CLIENT,
                server_config=SERVER_BASELINE,
                qps=50_000, num_requests=400, engine=engine)
            fired = []
            # Interleave foreign cancellable events with the workload's
            # fused traffic; one cancels the other mid-run.
            victim = testbed.sim.schedule_at(
                4_000.0, fired.append, "victim")
            testbed.sim.schedule_at(2_000.0, lambda v=victim: v.cancel())
            testbed.sim.schedule_at(6_000.0, fired.append, "late")
            metrics = testbed.run()
            assert fired == ["late"]
            assert victim.cancelled and not victim.fired
            results[engine] = metrics
            if engine == "vectorized":
                # The kernel really engaged around the foreign events:
                # the two that fired fell back, the traffic was fused.
                sim = testbed.sim
                assert sim.kernel_scalar_fallbacks == 2
                assert sim.events_processed > 2
        assert results["reference"] == results["vectorized"]


# ---------------------------------------------------------------------------
# Trains (Simulator.post_train): both engines against eager posts
# ---------------------------------------------------------------------------
_TIMES = st.integers(min_value=0, max_value=4).map(float)
_KINDS = st.sampled_from(("post", "schedule", "cancel"))
#: ``(kind, time, after_train, nested_delay)``: a foreign op added
#: before or after the train is posted; with a delay, its callback
#: adds one more op that far out.
_OPS = st.lists(st.tuples(_KINDS, _TIMES, st.booleans(),
                          st.none() | st.sampled_from((0.0, 1.0))),
                max_size=8)


class _Foreign:
    """Adds foreign post/schedule/cancel ops and logs their firing."""

    def __init__(self, sim):
        self.sim = sim
        self.log = []
        self.handles = []

    def note(self, tag, nested_delay):
        self.log.append((tag, self.sim.now))
        if nested_delay is not None:
            self.add("post", self.sim.now + nested_delay, tag + "+")

    def add(self, kind, at, tag, nested_delay=None):
        if kind == "post":
            self.sim.post_at(at, self.note, tag, nested_delay)
        elif kind == "schedule":
            self.handles.append(
                self.sim.schedule_at(at, self.note, tag, nested_delay))
        elif self.handles:
            self.handles[len(self.handles) // 2].cancel()

    def add_all(self, ops, after_train):
        for k, (kind, at, after, nested_delay) in enumerate(ops):
            if after == after_train:
                self.add(kind, at, f"op{k}", nested_delay)


def _eager_train(sim):
    """post_train as every member posted up front (what the generator
    did before trains): ``post_at(t, callback, *make_args(i))``."""
    def post_train(times, callback, make_args):
        for index, at in enumerate(map(float, times)):
            sim.post_at(at, callback, *make_args(index))
        return len(times)
    return post_train


def _train_run(sim, times, ops, nested, train=True):
    """One train among foreign ops; *nested* are ``(member, kind,
    delay)`` ops added from inside member callbacks.  Returns the
    fire log, the event count and make_args's ``(index, now)`` calls.
    """
    foreign = _Foreign(sim)
    built = []

    def member(index, payload):
        foreign.log.append((payload, sim.now))
        for j, (who, kind, delay) in enumerate(nested):
            if who == index:
                foreign.add(kind, sim.now + delay, f"m{index}.{j}")

    def make_args(index):
        built.append((index, sim.now))
        return (index, f"member{index}")

    foreign.add_all(ops, after_train=False)
    post_train = sim.post_train if train else _eager_train(sim)
    assert post_train(times, member, make_args) == len(times)
    foreign.add_all(ops, after_train=True)
    sim.run()
    return foreign.log, sim.events_processed, built


def _launch_run(engine, train, ops, arrivals=None):
    """A memcached testbed whose launch train is interleaved with
    foreign ops at its own arrival times (*ops* index *arrivals*).
    Each request build logs ``(index, now, foreign ops fired)``."""
    testbed = workload_by_name("memcached").build_testbed(
        seed=21, client_config=LP_CLIENT, server_config=SERVER_BASELINE,
        qps=200_000, num_requests=40, engine=engine)
    sim = testbed.sim
    generator = testbed.generator
    factory = generator._request_factory
    foreign = _Foreign(sim)
    built = []

    def counting_factory(index):
        built.append((index, sim.now, len(foreign.log)))
        return factory(index)

    generator._request_factory = counting_factory
    if not train:
        sim.post_train = _eager_train(sim)
    # An op's time 0..4 picks arrival 0, 9, ..., 36 of the 40.
    timed = [(kind, arrivals[int(at) * 9], after, nested)
             for kind, at, after, nested in ops] if arrivals else []
    foreign.add_all(timed, after_train=False)
    generator.start()
    foreign.add_all(timed, after_train=True)
    sim.run()
    assert generator.drained
    return (foreign.log, sim.events_processed, _column_digest(testbed),
            built)


class TestTrains:
    @given(times=st.lists(_TIMES, min_size=1, max_size=8).map(sorted),
           ops=_OPS,
           nested=st.lists(st.tuples(st.integers(0, 7), _KINDS,
                                     st.sampled_from((0.0, 1.0, 2.0))),
                           max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_train_fires_as_eager_posts(self, times, ops, nested):
        """Colliding member times among post/schedule/cancel at the
        same timestamps, some added from callbacks: the fire order,
        the callback args and the event count equal posting every
        member up front, and make_args runs once per member, in index
        order, at that member's own fire time."""
        log, events, _ = _train_run(Simulator(), times, ops, nested,
                                    train=False)
        for sim in (Simulator(), _engaged_kernel()):
            got = _train_run(sim, times, ops, nested)
            assert got == (log, events, list(enumerate(times)))

    @given(ops=_OPS)
    @example(ops=[("post", 1.0, True, None), ("schedule", 3.0, True, 0.0)])
    @settings(max_examples=15, deadline=None)
    def test_fused_launch_train_fires_as_eager_posts(self, ops):
        """The kernel's fused launch train, interleaved with foreign
        ops at its members' own times, equals eager posting on both
        engines: same foreign log, events and telemetry columns, and
        each request is built when it launches.  A member keeps its
        reserved sequence number, so it launches before a foreign op
        posted after the train at its own time, as on the reference
        engine."""
        arrivals = [at for _, at, _ in _launch_run("reference", True, [])[3]]
        want = _launch_run("reference", False, ops, arrivals)
        trained = _launch_run("reference", True, ops, arrivals)[3]
        assert [(i, at) for i, at, _ in trained] \
            == list(enumerate(arrivals))
        for engine in ENGINES:
            for train in (True, False):
                got = _launch_run(engine, train, ops, arrivals)
                assert got[:3] == want[:3]
                if train:
                    assert got[3] == trained

    def test_train_posted_during_a_run_fuses(self):
        """A generator started from a callback posts its train while
        the fused loop runs: post_train keys it, so only the starting
        callback falls back, and the run equals the reference's."""
        digests = {}
        for engine in ENGINES:
            testbed = _memcached_bed(engine, 6, 100_000, 300)
            sim = testbed.sim
            sim.post_at(50.0, testbed.generator.start)
            sim.run()
            assert testbed.generator.drained
            digests[engine] = (_column_digest(testbed),
                               sim.events_processed)
        assert sim.kernel_scalar_fallbacks == 1
        assert digests["vectorized"] == digests["reference"]

    def test_launch_train_on_an_unadopted_machine(self):
        """A machine the kernel does not adopt (a hot-path method
        wrapped on the instance) launches each member through the
        train's callback, scalar, bit-identical to the reference."""
        digests = {}
        for engine in ENGINES:
            testbed = workload_by_name("memcached").build_testbed(
                seed=3, client_config=LP_CLIENT,
                server_config=SERVER_BASELINE,
                qps=100_000, num_requests=200, engine=engine)
            for machine in testbed.generator.machines:
                machine.begin_send = (
                    lambda *args, _send=machine.begin_send: _send(*args))
            testbed.run()
            digests[engine] = _column_digest(testbed)
        assert testbed.sim.kernel_scalar_fallbacks >= 200
        assert digests["reference"] == digests["vectorized"]

    def test_step_bounded_runs_and_clear_with_a_pending_train(self):
        for sim in (Simulator(), _engaged_kernel()):
            fired = []
            sim.post_train((1.0, 2.0, 3.0, 4.0, 5.0), fired.append,
                           lambda index: (index,))
            sim.post_at(2.0, fired.append, "x")
            assert sim.step()
            assert fired == [0] and sim.now == 1.0
            assert sim.run(max_events=2) == 2
            assert fired == [0, 1, "x"]
            assert sim.run_until(3.5) == 1
            assert fired == [0, 1, "x", 2] and sim.now == 3.5
            assert sim.run() == 2
            assert fired == [0, 1, "x", 2, 3, 4]
            assert sim.events_processed == 6
            sim.post_train((6.0, 7.0), fired.append, lambda index: (index,))
            sim.clear()
            assert sim.pending_events == 0
            assert sim.run() == 0
            assert fired == [0, 1, "x", 2, 3, 4]

    def test_callback_raising_mid_train_keeps_the_next_member(self):
        for sim in (Simulator(), _engaged_kernel()):
            fired = []

            def member(index, fired=fired):
                fired.append(index)
                if index == 2:
                    raise RuntimeError("boom")

            sim.post_train((1.0, 2.0, 3.0, 4.0, 5.0), member,
                           lambda index: (index,))
            with pytest.raises(RuntimeError):
                sim.run()
            assert fired == [0, 1, 2]
            assert sim.events_processed == 3 and sim.now == 3.0
            # The next member waits in reference format: a plain
            # fire-and-forget entry whose callback fires it.
            (entry,) = sim._heap
            assert len(entry) == 4 and entry[:2] == (4.0, 3)
            assert callable(entry[2]) and entry[3] == ()
            assert sim.run() == 2
            assert fired == [0, 1, 2, 3, 4]

    def test_train_survives_heap_compaction(self):
        """Cancelling most of the heap from a member's callback
        rebinds the heap list; the train keeps pushing onto the new
        one."""
        for sim in (Simulator(), _engaged_kernel()):
            fired = []
            victims = [sim.schedule_at(50.0, fired.append, "victim")
                       for _ in range(100)]

            def member(index, fired=fired, victims=victims):
                fired.append(index)
                if index == 1:
                    for victim in victims:
                        victim.cancel()

            sim.post_train((1.0, 2.0, 3.0, 4.0), member,
                           lambda index: (index,))
            assert sim.run() == 4
            assert fired == [0, 1, 2, 3]
            assert sim.compactions >= 1


# ---------------------------------------------------------------------------
# The heap holds reference-format entries only: hooks and resumption
# ---------------------------------------------------------------------------
def _memcached_bed(engine, seed, qps, num_requests):
    return workload_by_name("memcached").build_testbed(
        seed=seed, client_config=LP_CLIENT, server_config=SERVER_BASELINE,
        qps=qps, num_requests=num_requests, engine=engine)


class TestReferenceFormatHeap:
    @pytest.mark.parametrize("hook", [
        "_launch", "_sent", "_at_client_nic", "_served", "_measured",
        "_after_completion"])
    def test_hook_assigned_on_the_instance_keeps_its_call(self, hook):
        """A generator hook wrapped on the instance before the run is
        no stock method: the kernel pushes the wrapper, as the
        reference components do, and calls it instead of fusing it,
        once per request, without changing a column."""
        plain = _memcached_bed("reference", 8, 100_000, 300)
        plain.run()
        for engine in ENGINES:
            testbed = _memcached_bed(engine, 8, 100_000, 300)
            generator = testbed.generator
            calls = [0]

            def wrapper(*args, _method=getattr(generator, hook)):
                calls[0] += 1
                return _method(*args)

            setattr(generator, hook, wrapper)
            testbed.run()
            assert calls[0] == 300
            assert _column_digest(testbed) == _column_digest(plain)

    def test_aborted_fused_run_resumes_exactly(self):
        """A foreign callback raising mid-run leaves only
        reference-format entries behind; a bounded scalar run and a
        fused run then finish it exactly as the reference engine
        does."""
        results = {}
        for engine in ENGINES:
            testbed = _memcached_bed(engine, 4, 200_000, 600)
            sim = testbed.sim

            def boom():
                raise RuntimeError("boom")

            testbed.generator.start()
            sim.post_at(1_000.0, boom)
            with pytest.raises(RuntimeError):
                sim.run()
            assert sim.now == 1_000.0
            leftovers = [entry[2] for entry in sim._heap]
            assert leftovers and all(
                isinstance(callback, (types.MethodType, _Train))
                for callback in leftovers)
            assert sim.run(max_events=50) == 50
            sim.run()
            results[engine] = (_column_digest(testbed),
                               sim.events_processed,
                               testbed.generator.drained)
        assert results["reference"][2]
        assert results["vectorized"] == results["reference"]


# ---------------------------------------------------------------------------
# Heap discipline: the held root
# ---------------------------------------------------------------------------
def _metrics_bed(engine, num_requests=2_000, qps=100_000, **policy):
    return (experiment("memcached")
            .client("LP")
            .load(qps=qps, num_requests=num_requests)
            .policy(runs=1, base_seed=4, engine=engine, metrics=True,
                    **policy)
            .build()
            .testbed())


def _describe_heap(sim):
    """Every queued entry's key and what it fires, in key order."""
    def fires(entry):
        if len(entry) == 3:
            return "Event:" + entry[2].callback.__name__
        return getattr(entry[2], "__name__", type(entry[2]).__name__)
    return sorted((entry[0], entry[1], fires(entry)) for entry in sim._heap)


def _finish_by_steps(testbed):
    """Finish an aborted run with step() alone, then summarize it (a
    request whose event raised is lost, on either engine)."""
    sim = testbed.sim
    while sim.step():
        pass
    generator = testbed.generator
    completed = generator.completed
    generator.num_requests = completed
    generator.start = lambda: None
    testbed._ran = False
    return completed, testbed.run()


class TestHeapDiscipline:
    def _abort(self, engine, arm):
        """Run *engine*'s testbed until *arm*'s fault raises; return
        the heap, counters and clock left behind, and the testbed."""
        testbed = _metrics_bed(engine)
        arm(testbed)
        with pytest.raises(RuntimeError, match="injected"):
            testbed.run()
        sim = testbed.sim
        return (_describe_heap(sim), sim.events_processed, sim.now,
                sim.pending_events, sim.live_pending_events), testbed

    def _check(self, arm):
        left, finished = {}, {}
        for engine in ENGINES:
            left[engine], testbed = self._abort(engine, arm)
            finished[engine] = _finish_by_steps(testbed)
        heap = left["reference"][0]
        assert heap and left["vectorized"] == left["reference"]
        # Measurements were queued when the run aborted.
        assert any(name == "_measured" for _, _, name in heap)
        completed, metrics = finished["reference"]
        assert finished["vectorized"][0] == completed
        assert _without_fallbacks(finished["vectorized"][1]) == metrics
        return left["reference"]

    def test_abort_inside_a_fused_body_with_the_root_held(self):
        """A station draw raising inside the fused SUBMIT body, before
        its push replaced the root: the root is popped, as the
        reference loop popped it, and the heap, the event count and
        the rest of the run equal the reference engine's."""
        state = {}

        def arm(testbed):
            sim = testbed.sim
            station = testbed.service
            stream = station._rng
            draw = stream.draw_normal
            calls = [0]

            def faulty():
                calls[0] += 1
                if calls[0] == 501:
                    state[type(sim)] = sim._heap[0][2] == station.submit
                    raise RuntimeError("injected")
                return draw()

            stream.draw_normal = faulty

        self._check(arm)
        # On the kernel the raising event was still the heap's root.
        assert state[KernelSimulator] is True
        assert state[Simulator] is False

    def test_cancels_see_the_reference_queue(self, monkeypatch):
        """The fused response leg pops its event before it cancels a
        call's timers: every Event.cancel sees the reference engine's
        queue size and cancellation count."""
        seen = {}
        note = Simulator._note_cancelled

        def spy(self):
            seen[type(self)].append((self.pending_events,
                                     self._cancelled_in_heap))
            note(self)

        monkeypatch.setattr(Simulator, "_note_cancelled", spy)
        for engine in ENGINES:
            testbed = _graph_testbed(engine)
            seen[type(testbed.sim)] = []
            testbed.run()
        assert len(seen[Simulator]) > 100
        assert seen[KernelSimulator] == seen[Simulator]

    def test_abort_in_a_raising_event_callback(self):
        def arm(testbed):
            def boom():
                raise RuntimeError("injected")
            testbed.sim.schedule_at(2_000.0, boom)

        *_, now, _, _ = self._check(arm)
        assert now == 2_000.0

    def test_pending_events_seen_from_a_foreign_callback(self):
        """Mid-run, a foreign callback sees the reference engine's
        queue sizes: no root is held across a foreign call."""
        seen = {}
        for engine in ENGINES:
            testbed = _metrics_bed(engine, num_requests=600,
                                   qps=200_000)
            sim = testbed.sim
            log = seen[engine] = []

            def probe(sim=sim, log=log):
                log.append((sim.now, sim.pending_events,
                            sim.live_pending_events))

            for at in (5.0, 400.0, 1_234.5, 2_500.0):
                sim.post_at(at, probe)
            testbed.run()
        assert len(seen["reference"]) == 4
        assert seen["vectorized"] == seen["reference"]

    def test_clear_from_a_callback_matches_the_reference(self):
        """clear() mid-run drops every queued event: the completions
        recorded and the events fired equal the reference engine's."""
        seen = {}
        for engine in ENGINES:
            testbed = _metrics_bed(engine, num_requests=600,
                                   qps=200_000)
            sim = testbed.sim
            sim.post_at(1_500.0, sim.clear)
            testbed.generator.start()
            sim.run()
            seen[engine] = (testbed.generator.completed,
                            _column_digest(testbed),
                            sim.events_processed, sim.pending_events)
        assert 0 < seen["reference"][0] < 600
        assert seen["vectorized"] == seen["reference"]

    def test_cancelling_compacts_as_the_reference_heap_does(self):
        """A callback that cancels its own events one at a time until
        the heap compacts needs as many cancels on both engines."""
        needed = {}
        for engine in ENGINES:
            testbed = _metrics_bed(engine, num_requests=600,
                                   qps=200_000)
            sim = testbed.sim
            count = needed[engine] = []

            def cancel_until_compaction(sim=sim, count=count):
                events = [sim.schedule(1e9, int) for _ in range(200)]
                before = sim.compactions
                for cancelled, event in enumerate(events, 1):
                    event.cancel()
                    if sim.compactions > before:
                        count.append((cancelled, sim.pending_events))
                        break

            sim.post_at(1_500.0, cancel_until_compaction)
            metrics = testbed.run()
            count.append(_counters(metrics)["engine.heap_compactions"])
        assert needed["reference"][-1] == 1
        assert needed["vectorized"] == needed["reference"]

    def test_main_heap_calls_per_request(self, monkeypatch):
        """A memcached LP request costs the main heap 8 calls (14
        before the root was held and launch trains became dispatch
        keys)."""
        import heapq

        import repro.sim.engine as engine_module
        import repro.sim.kernel as kernel_module

        num_requests = 2_000
        testbed = _metrics_bed("vectorized", num_requests=num_requests,
                               qps=200_000)
        sim = testbed.sim
        calls = [0]

        def counted(function):
            def call(heap, *args):
                if heap is sim._heap:
                    calls[0] += 1
                return function(heap, *args)
            return call

        for module in (kernel_module, engine_module):
            for name in ("heappush", "heappop", "heapreplace"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name,
                                        counted(getattr(heapq, name)))
        testbed.run()
        assert testbed.generator.drained
        assert calls[0] / num_requests <= 8.1


# ---------------------------------------------------------------------------
# Testbed drain semantics
# ---------------------------------------------------------------------------
class TestTestbedDrain:
    def test_kernel_run_drains_generator(self):
        testbed = workload_by_name("memcached").build_testbed(
            seed=99, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE,
            qps=50_000, num_requests=200, engine="vectorized")
        metrics = testbed.run()
        generator = testbed.generator
        assert generator.drained
        assert generator.completed == generator.num_requests == 200
        assert testbed.sim.live_pending_events == 0
        assert metrics.requests > 0

    def test_kernel_testbed_is_single_use(self):
        testbed = workload_by_name("synthetic").build_testbed(
            seed=3, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE,
            qps=10_000, num_requests=50, engine="vectorized")
        testbed.run()
        with pytest.raises(ExperimentError):
            testbed.run()

    def test_heap_usable_after_kernel_run(self):
        """After the fused loop exits, the simulator must be a normal
        Simulator again: new events schedule and fire correctly."""
        testbed = workload_by_name("memcached").build_testbed(
            seed=7, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE,
            qps=50_000, num_requests=100, engine="vectorized")
        testbed.run()
        sim = testbed.sim
        end = sim.now
        fired = []
        sim.post(10.0, fired.append, "post-run")
        sim.run()
        assert fired == ["post-run"]
        assert sim.now == end + 10.0

    @pytest.mark.parametrize("engine, topology", [
        pytest.param(engine, topology, id="-".join(filter(None, (
            engine, name))))
        for name, topology in (
            ("", {}),
            ("graph", {"graph": graph_preset("memcached-cached")}),
            ("balancer", {"cluster": ClusterSpec(
                nodes=4, lb_policy="power-of-two")}),
            ("fanout", {"cluster": ClusterSpec(shards=4, fanout=2)}))
        for engine in ENGINES])
    def test_finished_testbed_freed_by_reference_counting(
            self, engine, topology):
        """A drained run leaves no reference cycle behind: with the
        cyclic collector off, the simulator dies with its testbed, on
        every topology the kernel fuses."""
        gc.disable()
        try:
            testbed = workload_by_name("memcached").build_testbed(
                seed=11, client_config=LP_CLIENT,
                server_config=SERVER_BASELINE,
                qps=50_000, num_requests=200, engine=engine, **topology)
            testbed.run()
            sim = weakref.ref(testbed.sim)
            del testbed
            assert sim() is None
        finally:
            gc.enable()


def test_traced_run_skips_the_fused_loop(monkeypatch):
    """Tracing adopts nothing, so the kernel runs the reference loop
    outright, counts every event as a fallback, and otherwise matches
    the reference engine exactly."""
    def traced(engine):
        return (experiment("memcached")
                .client("LP")
                .load(qps=100_000.0, num_requests=300)
                .policy(runs=1, base_seed=3, trace=True, engine=engine)
                .build()
                .testbed())

    reference = traced("reference").run()

    def refuse(self, dispatch):
        raise AssertionError("a traced run entered the fused loop")

    monkeypatch.setattr(KernelSimulator, "_run_kernel", refuse)
    testbed = traced("vectorized")
    metrics = testbed.run()
    fallbacks = {"engine.kernel.scalar_fallbacks":
                 float(testbed.sim.events_processed)}
    assert dict(metrics.obs_metrics) == {**dict(reference.obs_metrics),
                                         **fallbacks}
    assert (replace(metrics, obs_metrics=())
            == replace(reference, obs_metrics=()))


# ---------------------------------------------------------------------------
# Service-graph entry: ServiceGraph.submit -> GraphStage -> station, fused
# ---------------------------------------------------------------------------
_GRAPH_REQUESTS = 600


def _cached_graph(hit_ratio, leaf=None):
    """memcached-cached's tiers with a fixed hit ratio, and a leaf
    tier of 8 shards without a policy unless *leaf* is given."""
    return ServiceGraphSpec(tiers=(
        GraphTierSpec(name="frontend", downstream=("cache",)),
        GraphTierSpec(name="cache", kind="cache", downstream=("leaf",),
                      hit_ratio=hit_ratio, hit_service_us=4.0,
                      fill_penalty_us=6.0),
        leaf or GraphTierSpec(name="leaf", shape=ClusterSpec(shards=8)),
    ))


#: name -> (workload, qps, topology).
_GRAPHS = {
    "memcached-cached": ("memcached", 200_000.0, "memcached-cached"),
    "hdsearch-graph": ("hdsearch", 1_000.0, "hdsearch-graph"),
    "frontend-only": ("memcached", 200_000.0, ServiceGraphSpec(
        tiers=(GraphTierSpec(name="frontend"),))),
    # Two downstream tiers, joined by a FanoutService without links.
    "colocated-join": ("memcached", 100_000.0, ServiceGraphSpec(tiers=(
        GraphTierSpec(name="frontend", downstream=("left", "right")),
        GraphTierSpec(name="left"),
        GraphTierSpec(name="right"),
    ))),
    "always-hit": ("memcached", 200_000.0, _cached_graph(1.0)),
    "always-miss": ("memcached", 200_000.0, _cached_graph(0.0)),
    # A leaf edge whose attempts time out, back off and retry, and
    # hedge.
    "retrying-leaf": ("memcached", 200_000.0, _cached_graph(
        0.8, GraphTierSpec(
            name="leaf", shape=ClusterSpec(shards=4),
            policy=ResiliencePolicy(
                timeout_us=45.0, max_retries=1, backoff_us=5.0,
                hedge_after_us=35.0, hedges=1)))),
    # A partial fan-out: select_shards draws 3 of 8 shards.
    "partial-fanout-leaf": ("memcached", 200_000.0, _cached_graph(
        0.8, GraphTierSpec(
            name="leaf", shape=ClusterSpec(shards=8, fanout=3, quorum=2),
            policy=ResiliencePolicy(hedge_after_us=48.0, hedges=1)))),
}


def _graph_testbed(engine, graph="memcached-cached", **policy):
    workload, qps, topology = _GRAPHS[graph]
    return (experiment(workload)
            .client("LP")
            .graph(topology)
            .load(qps=qps, num_requests=_GRAPH_REQUESTS)
            .policy(runs=1, base_seed=0, engine=engine, **policy)
            .build()
            .testbed())


def _fallbacks(metrics):
    return dict(metrics.obs_metrics)["engine.kernel.scalar_fallbacks"]


def _without_fallbacks(metrics):
    pairs = tuple((name, value) for name, value in metrics.obs_metrics
                  if name != "engine.kernel.scalar_fallbacks")
    return replace(metrics, obs_metrics=pairs)


class _CountingStage(GraphStage):
    """A GraphStage subclass: its submit is no longer the stock one."""

    def submit(self, request, done_fn, *ctx):
        self.calls.append(request.request_id)
        super().submit(request, done_fn, *ctx)


# Each override defeats the entry fusion in one way and returns the
# list it appends one request id to per call.
def _override_graph_submit(testbed):
    graph, calls = testbed.service, []

    def submit(request, done_fn, *ctx):
        calls.append(request.request_id)
        ServiceGraph.submit(graph, request, done_fn, *ctx)

    graph.submit = submit
    return calls


def _override_stage_forward(testbed):
    stage, calls = testbed.service._entry, []

    def forward(request, done_fn, *ctx):
        calls.append(request.request_id)
        GraphStage._forward(stage, request, done_fn, *ctx)

    stage._forward = forward
    return calls


def _subclass_stage(testbed):
    stage = testbed.service._entry
    stage.__class__ = _CountingStage
    stage.calls = []
    return stage.calls


class TestGraphEntryFusion:
    @pytest.mark.parametrize("override", [
        _override_graph_submit, _override_stage_forward, _subclass_stage])
    def test_fused_entry_saves_one_fallback_per_request(self, override):
        """The generator's submit into the graph runs as the entry
        station's fused SUBMIT.  Defeating the fusion -- an assigned
        graph.submit or stage._forward, a GraphStage subclass -- costs
        exactly one scalar fallback per request, calls the override
        once per request on both engines, and changes no number."""
        stock = _graph_testbed("vectorized", metrics=True).run()
        results = {}
        for engine in ENGINES:
            testbed = _graph_testbed(engine, metrics=True)
            calls = override(testbed)
            results[engine] = testbed.run()
            assert sorted(calls) == list(range(_GRAPH_REQUESTS))
        assert (_fallbacks(results["vectorized"])
                == _fallbacks(stock) + _GRAPH_REQUESTS)
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"])

    @pytest.mark.parametrize("graph", ["memcached-cached", "hdsearch-graph"])
    def test_streaming_graph_plans_bit_identical_across_engines(self, graph):
        """The columnar graph goldens run on both engines; this is the
        streaming sink, which the kernel records through undeferred."""
        results = {
            engine: _graph_testbed(engine, graph, sink="streaming").run()
            for engine in ENGINES}
        assert results["reference"].requests > 0
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"])

    def test_entry_without_downstream_is_not_rewritten(self):
        """A single-tier graph's stage hands the caller's callback
        straight to its station -- there is no hop to forward to."""
        results = {engine: _graph_testbed(engine, "frontend-only").run()
                   for engine in ENGINES}
        assert results["vectorized"] == results["reference"]


# ---------------------------------------------------------------------------
# Service-graph completions: the shard hop, _at_root and the cache
# completions, fused
# ---------------------------------------------------------------------------
def _counters(metrics):
    return dict(metrics.obs_metrics)


def _tier_total(counters, prefix, suffix):
    return sum(value for name, value in counters.items()
               if name.startswith(prefix) and name.endswith(suffix))


def _subs(counters):
    return _tier_total(counters, "fanout.", ".subs_completed")


def _lookups(counters):
    return counters["cache.cache.hits"] + counters["cache.cache.misses"]


def _leaf_fanout(testbed):
    return testbed.service.dispatchers["leaf"].backend.local


def _cache(testbed):
    return testbed.service.caches["cache"]


def _edge(testbed):
    return testbed.service.dispatchers["leaf"]


def _leaf_stage(testbed):
    return _edge(testbed).backend


def _assign(locate, name, cls):
    """An override assigning a counting pass-through to
    ``locate(testbed).<name>``; it returns the list the pass-through
    appends one entry to per call."""
    def install(testbed):
        target, calls = locate(testbed), []
        stock = getattr(cls, name)

        def passthrough(*args, **kwargs):
            calls.append(None)
            return stock(target, *args, **kwargs)

        setattr(target, name, passthrough)
        return calls
    return install


def _counting_subclass(locate, cls, name):
    """An override by a subclass of *cls* (no longer the exact type the
    kernel fuses) whose *name* counts its calls; it returns the list
    it appends one entry to per call."""
    stock = getattr(cls, name)

    def install(testbed):
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(None)
            return stock(self, *args, **kwargs)

        locate(testbed).__class__ = type(
            f"_Counting{cls.__name__}", (cls,), {name: counted})
        return calls
    return install


def _attempts(counters):
    return counters["resilience.leaf.attempts_issued"]


#: override -> (install, calls it sees, fallback events it adds), the
#: last two as functions of the run's counters.  A completion the
#: table no longer fuses is called in place, inside the fused event
#: that reaches it, so only an un-fused *event* adds a fallback.
_COMPLETION_OVERRIDES = {
    "fanout._shard_served": (
        _assign(_leaf_fanout, "_shard_served", FanoutService),
        _subs, lambda counters: 0),
    "fanout._at_root": (
        _assign(_leaf_fanout, "_at_root", FanoutService), _subs, _subs),
    "cache._finish_hit": (
        _assign(_cache, "_finish_hit", CacheTier),
        lambda counters: counters["cache.cache.hits"],
        lambda counters: counters["cache.cache.hits"]),
    "cache._finish_miss": (
        _assign(_cache, "_finish_miss", CacheTier),
        lambda counters: counters["cache.cache.misses"],
        lambda counters: counters["cache.cache.misses"]),
    "cache.submit": (
        _assign(_cache, "submit", CacheTier), _lookups,
        lambda counters: 0),
    # The frontend's _forward is also the graph entry's, whose fused
    # SUBMIT it un-fuses: one fallback per request.
    "stage._forward": (
        _assign(lambda testbed: testbed.service._entry, "_forward",
                GraphStage),
        lambda counters: _GRAPH_REQUESTS,
        lambda counters: _GRAPH_REQUESTS),
    "FanoutService subclass": (
        _counting_subclass(_leaf_fanout, FanoutService, "_at_root"),
        _subs, _subs),
    "CacheTier subclass": (
        _counting_subclass(_cache, CacheTier, "submit"),
        _lookups, _lookups),
}


def _none(counters):
    return 0


#: The methods the fused cache lookup and the miss path behind it
#: stand for: locate, class, name, the calls it sees, and the events
#: a subclass un-fuses (a CacheTier or FanoutService subclass is no
#: longer the exact type whose completions the kernel fuses).
_LOOKUP_METHODS = (
    (_cache, CacheTier, "_is_hit", _lookups, _lookups),
    (_cache, CacheTier, "_filled",
     lambda counters: counters["cache.cache.misses"], _lookups),
    (_edge, ResilientDispatcher, "submit",
     lambda counters: counters["resilience.leaf.calls"], _none),
    (_edge, ResilientDispatcher, "_launch_attempt", _attempts, _none),
    (_edge, ResilientDispatcher, "_responded", _attempts, _none),
    (_leaf_stage, GraphStage, "submit", _attempts, _none),
    (_leaf_fanout, FanoutService, "submit", _attempts, _subs),
    (_leaf_fanout, FanoutService, "select_shards", _attempts, _subs),
)
for _locate, _cls, _name, _seen, _unfused in _LOOKUP_METHODS:
    # The lookup runs inside the fused FINISH that reaches it, so an
    # override that un-fuses it is called in place: no fallback.
    _COMPLETION_OVERRIDES[f"{_cls.__name__}.{_name}"] = (
        _assign(_locate, _name, _cls), _seen, _none)
    _COMPLETION_OVERRIDES[f"{_cls.__name__} subclass: {_name}"] = (
        _counting_subclass(_locate, _cls, _name), _seen, _unfused)


class TestGraphCompletionFusion:
    @pytest.mark.parametrize("override", sorted(_COMPLETION_OVERRIDES))
    def test_override_unfuses_exactly_its_events(self, override):
        """Each fused completion body is keyed on a stock method of an
        exact type.  Overriding one -- assigned on the instance or by
        a subclass -- calls the override as often on both engines,
        raises the fallbacks by exactly the events it un-fuses, and
        changes no number."""
        install, seen, unfused = _COMPLETION_OVERRIDES[override]
        testbed = _graph_testbed("vectorized", metrics=True)
        stock = testbed.run()
        digests = {"stock": _column_digest(testbed)}
        counters = _counters(stock)
        results = {}
        for engine in ENGINES:
            testbed = _graph_testbed(engine, metrics=True)
            calls = install(testbed)
            results[engine] = testbed.run()
            digests[engine] = _column_digest(testbed)
            assert len(calls) == seen(counters) > 0
        assert (_fallbacks(results["vectorized"])
                == _fallbacks(stock) + unfused(counters))
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"] == _without_fallbacks(stock))
        assert len(set(digests.values())) == 1

    @pytest.mark.parametrize("graph, colocate, expect", [
        # Attempts time out, back off and retry, and hedge.
        ("retrying-leaf", False, lambda c: (
            0 < c["resilience.leaf.timeouts"] < c["resilience.leaf.calls"]
            and c["resilience.leaf.retries"] > 0
            and c["resilience.leaf.hedges"] > 0)),
        # select_shards draws 3 of the 8 shards per attempt.
        ("partial-fanout-leaf", False, lambda c: (
            _subs(c) == 3 * _attempts(c) > 0)),
        # Co-located shards: the fan-out's submit is called as it is.
        ("memcached-cached", True, lambda c: _subs(c) == 8 * _attempts(c)),
    ])
    def test_cache_miss_shapes_bit_identical_across_engines(
            self, graph, colocate, expect, monkeypatch):
        """A cache miss runs fused behind a leaf edge over a linked
        fan-out, whatever its policy or fan-out width, and as it is
        behind co-located shards.  Either way both engines agree,
        columns and every counter."""
        submits = []
        stock = ResilientDispatcher.submit

        def spy(self, *args):  # still the stock method to the kernel
            submits.append(None)
            stock(self, *args)

        monkeypatch.setattr(ResilientDispatcher, "submit", spy)
        results, digests, calls = {}, {}, {}
        for engine in ENGINES:
            testbed = _graph_testbed(engine, graph, metrics=True)
            if colocate:
                fanout = _leaf_fanout(testbed)
                fanout._links = [None] * fanout.num_shards
            del submits[:]
            results[engine] = testbed.run()
            digests[engine] = _column_digest(testbed)
            calls[engine] = len(submits)
        counters = _counters(results["reference"])
        assert expect(counters)
        assert calls["reference"] == counters["resilience.leaf.calls"] > 0
        assert calls["vectorized"] == (calls["reference"] if colocate
                                       else 0)
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"])
        assert digests["vectorized"] == digests["reference"]

    def test_response_leg_runs_fused(self, monkeypatch):
        """The edge's stock ``_responded`` and the cache's stock
        ``_filled`` behind it run fused: class-level spies (still the
        stock methods to the kernel) see every call on the reference
        loop and none on the kernel, and both engines agree."""
        calls = {"_responded": [], "_filled": []}
        for cls, name in ((ResilientDispatcher, "_responded"),
                          (CacheTier, "_filled")):
            def spy(self, *args, _stock=getattr(cls, name),
                    _calls=calls[name]):
                _calls.append(None)
                _stock(self, *args)

            monkeypatch.setattr(cls, name, spy)
        results, digests, seen, tallies = {}, {}, {}, {}
        for engine in ENGINES:
            for log in calls.values():
                del log[:]
            testbed = _graph_testbed(engine, metrics=True)
            results[engine] = testbed.run()
            digests[engine] = _column_digest(testbed)
            seen[engine] = {name: len(log) for name, log in calls.items()}
            edge = _edge(testbed)  # roots_completed is not a counter
            tallies[engine] = (edge.attempts_completed,
                               edge.roots_completed)
        counters = _counters(results["reference"])
        assert seen["reference"] == {
            "_responded": counters["resilience.leaf.attempts_completed"],
            "_filled": counters["cache.cache.misses"]}
        assert 0 < counters["cache.cache.misses"] < seen[
            "reference"]["_responded"]
        assert seen["vectorized"] == {"_responded": 0, "_filled": 0}
        assert tallies["vectorized"] == tallies["reference"]
        assert tallies["reference"][1] == counters["resilience.leaf.calls"]
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"])
        assert digests["vectorized"] == digests["reference"]

    def test_only_the_hedge_timers_fall_back(self):
        """On memcached-cached every event but a hedge timer firing
        (a cancellable Event) runs fused."""
        counters = _counters(
            _graph_testbed("vectorized", metrics=True).run())
        assert counters["resilience.leaf.hedges"] > 0
        assert (counters["engine.kernel.scalar_fallbacks"]
                == counters["resilience.leaf.hedges"])

    @pytest.mark.parametrize("graph, counter, count", [
        ("colocated-join", "fanout.frontend-join.subs_completed",
         2 * _GRAPH_REQUESTS),
        ("always-hit", "cache.cache.hits", _GRAPH_REQUESTS),
        ("always-miss", "cache.cache.misses", _GRAPH_REQUESTS)])
    def test_graph_bit_identical_across_engines(self, graph, counter,
                                                count):
        """A co-located fan-out's shards reach _at_root by a direct
        scalar call; a cache's degenerate ratios decide without a
        draw.  Either way both engines agree, counters included."""
        results, digests = {}, {}
        for engine in ENGINES:
            testbed = _graph_testbed(engine, graph, metrics=True)
            results[engine] = testbed.run()
            digests[engine] = _column_digest(testbed)
        assert _counters(results["reference"])[counter] == count
        assert (_without_fallbacks(results["vectorized"])
                == results["reference"])
        assert digests["vectorized"] == digests["reference"]


# ---------------------------------------------------------------------------
# Telemetry bit-identity, column by column
# ---------------------------------------------------------------------------
def _column_digest(testbed):
    digest = hashlib.sha256()
    columns = testbed.generator.samples.columns
    for name in COLUMN_FIELDS:
        digest.update(columns.column(name).tobytes())
    return digest.hexdigest()


def test_fused_run_keeps_requests_in_flight_only():
    """Requests are built when they launch, completed ones wait in the
    kernel's record buffer for at most RECORD_CHUNK completions, and
    a launched request is held by nothing but its in-flight events;
    none of it changes a column."""
    num_requests = 3 * RECORD_CHUNK + 17
    # Requests an earlier test left alive (or in an uncollected cycle)
    # are no concern of this one: count only the excess over them.
    gc.collect()
    baseline = sum(type(obj) is Request for obj in gc.get_objects())
    testbeds = {
        engine: workload_by_name("memcached").build_testbed(
            seed=5, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE,
            qps=100_000, num_requests=num_requests, engine=engine)
        for engine in ENGINES}
    generator = testbeds["vectorized"].generator
    samples = generator.samples
    factory = generator._request_factory
    built = [0]
    built_at_batch = []
    batches = []
    excess_live = []
    record_batch = samples.record_batch

    def counting_factory(index):
        built[0] += 1
        return factory(index)

    def recording_batch(requests):
        # Only built requests not yet recorded may be alive (in
        # flight, or in this batch); no recorded one may.
        live = sum(type(obj) is Request for obj in gc.get_objects())
        excess_live.append(live - baseline - (built[0] - len(samples)))
        built_at_batch.append(built[0])
        batches.append(len(requests))
        record_batch(requests)

    generator._request_factory = counting_factory
    samples.record_batch = recording_batch
    for testbed in testbeds.values():
        testbed.run()
    assert built_at_batch[0] < num_requests
    assert max(batches) == RECORD_CHUNK
    assert sum(batches) == len(samples) == built[0] == num_requests
    assert max(excess_live) <= 0
    assert (_column_digest(testbeds["vectorized"])
            == _column_digest(testbeds["reference"]))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_telemetry_columns_bit_identical(workload):
    qps = {"memcached": 100_000.0, "hdsearch": 1_000.0,
           "socialnetwork": 300.0, "synthetic": 10_000.0}[workload]
    digests = {}
    for engine in ENGINES:
        testbed = workload_by_name(workload).build_testbed(
            seed=42, client_config=LP_CLIENT,
            server_config=SERVER_BASELINE,
            qps=qps, num_requests=120, engine=engine)
        testbed.run()
        digests[engine] = _column_digest(testbed)
    assert digests["reference"] == digests["vectorized"]


# ---------------------------------------------------------------------------
# Component counters: draws served, links, stations, events
# ---------------------------------------------------------------------------
#: name -> (workload, client, qps, topology: a ClusterSpec or a graph,
#: extra run policy).
_COUNTER_PLANS = {
    "memcached-LP": ("memcached", "LP", 100_000.0, None, {}),
    "memcached-HP": ("memcached", "HP", 100_000.0, None, {}),
    "memcached-LP-streaming": ("memcached", "LP", 100_000.0, None,
                               {"sink": "streaming"}),
    # Two striped shard workers, merged (run inline).
    "memcached-LP-workers2": ("memcached", "LP", 100_000.0, None,
                              {"workers": 2}),
    "hdsearch": ("hdsearch", "LP", 1_000.0, None, {}),
    "socialnetwork": ("socialnetwork", "LP", 300.0, None, {}),
    "synthetic": ("synthetic", "LP", 10_000.0, None, {}),
    "memcached-cluster": ("memcached", "LP", 100_000.0,
                          ClusterSpec(nodes=4, lb_policy="power-of-two"),
                          {}),
    # Hedge timers cancelled mid-run: heap compaction counts too.
    "memcached-cached": ("memcached", "LP", 200_000.0, "memcached-cached",
                         {}),
    # Partial fan-out draws, a straggler past the quorum per root, and
    # shards busy enough to queue (the quorum's max queue wait).
    "hdsearch-quorum": ("hdsearch", "LP", 4_000.0, ClusterSpec(
        nodes=2, shards=4, fanout=2, quorum=1, lb_policy="power-of-two"),
        {}),
}


@pytest.mark.parametrize("case", sorted(_COUNTER_PLANS))
def test_metrics_counters_match_reference(case):
    """Every fused body draws and tallies as the reference components
    do, so every harvested counter -- link and station tallies, fan-out,
    cache and resilience tallies, events dispatched, heap compactions,
    the sampler gauge -- and every telemetry column equals the
    reference engine's; only the kernel's fallback count is its own."""
    workload, client, qps, topology, policy = _COUNTER_PLANS[case]
    results, digests = {}, {}
    for engine in ENGINES:
        builder = (experiment(workload)
                   .client(client)
                   .load(qps=qps, num_requests=300)
                   .policy(runs=1, base_seed=3, engine=engine,
                           metrics=True, **policy))
        if isinstance(topology, ClusterSpec):
            builder = builder.cluster(topology)
        elif topology is not None:
            builder = builder.graph(topology)
        plan = builder.build()
        if policy:
            # Sharded or streaming: the merged metrics, no columns.
            (results[engine],) = run_sharded(plan, processes=1).runs
            digests[engine] = None
        else:
            testbed = plan.testbed()
            results[engine] = testbed.run()
            digests[engine] = _column_digest(testbed)
    # Non-vacuity: the link tallies the fused SENT and FINISH bodies
    # (and the shard hops) update inline were really counted.
    counters = dict(results["reference"].obs_metrics)
    assert any(value > 0 for name, value in counters.items()
               if name.startswith("net.") and name.endswith(".messages"))
    if case == "hdsearch-quorum":
        assert (_subs(counters)
                > _tier_total(counters, "fanout.", ".roots_completed") > 0)
        columns = testbed.generator.samples.columns
        assert (columns.column("queue_wait_us") > 0.0).any()
    if case == "memcached-cached":
        assert counters["cache.cache.misses"] > 0
        assert counters["resilience.leaf.hedges"] > 0
        # Only the hedge timers fall back.
        assert (_fallbacks(results["vectorized"])
                == counters["resilience.leaf.hedges"])
    assert "engine.heap_compactions" in counters
    assert (_without_fallbacks(results["vectorized"])
            == results["reference"])
    # The per-request timings (queue wait, service, departure) too.
    assert digests["vectorized"] == digests["reference"]


# ---------------------------------------------------------------------------
# Cross-process determinism under a hostile PYTHONHASHSEED
# ---------------------------------------------------------------------------
def _make_plans():
    """Every paper workload single-server, plus one 4-node cluster."""
    plans = []
    qps = {"memcached": 100_000.0, "hdsearch": 1_000.0,
           "socialnetwork": 300.0, "synthetic": 10_000.0}
    for workload in WORKLOADS:
        plans.append(
            experiment(workload)
            .client("LP")
            .load(qps=qps[workload], num_requests=60)
            .policy(runs=2, base_seed=7, engine="vectorized")
            .build())
    plans.append(
        experiment("memcached")
        .client("LP")
        .load(qps=100_000.0, num_requests=60)
        .policy(runs=2, base_seed=7, engine="vectorized")
        .cluster(ClusterSpec(nodes=4, lb_policy="least-outstanding"))
        .build())
    return plans


def _reference_hash(plan):
    """The same plan executed on the reference engine, in-process."""
    reference = plan.with_policy(engine="reference")
    assert json.loads(reference.to_json())["policy"]["engine"] == "reference"
    return content_hash(experiment_result_to_dict(reference.run()))


def test_kernel_subprocess_matches_reference_full_payload():
    """A child process (PYTHONHASHSEED=4321) runs every plan on the
    vectorized engine; the full-metrics content hashes must equal the
    parent's reference-engine hashes for all four workloads and the
    4-node cluster."""
    plans = _make_plans()
    expected = [_reference_hash(plan) for plan in plans]

    code = (
        "import json, sys\n"
        "from repro.api import ExperimentPlan\n"
        "from repro.campaign.serialize import experiment_result_to_dict\n"
        "from repro.config.serialize import content_hash\n"
        "for text in json.load(sys.stdin):\n"
        "    plan = ExperimentPlan.from_json(text)\n"
        "    assert plan.policy.engine == 'vectorized'\n"
        "    payload = experiment_result_to_dict(plan.run())\n"
        "    print(content_hash(payload))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    env["PYTHONHASHSEED"] = "4321"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        input=json.dumps([plan.to_json() for plan in plans]),
        capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.split() == expected
