"""Accelerated event kernel: fused event handlers.

:class:`KernelSimulator` is the default engine
(``RunPolicy(engine="vectorized")``), a drop-in for
:class:`~repro.sim.engine.Simulator` -- which stays as
``engine="reference"``, the oracle the goldens and determinism suites
compare against.  It attacks the residual cost of the event loop:
pure-Python dispatch.  The reference loop pays a chain of 4-6 Python
calls per event (callback -> component method -> hardware model ->
``post_at``); the kernel recognises the handful of callbacks that
dominate the stationary phase of every workload -- arrival admission
(``_launch``), client core event handling (``_do_send`` /
``_at_client_nic``), link transit (``_sent``), station service
completion (``ServerPool._finish``) and measurement (``_measured``) --
and runs a *fused*, fully inlined handler for each, with the exact
float arithmetic and draw sequence of the reference components.

One dispatch table, built at run start from the adopted components,
maps each such stock bound method to its fused handler, and one probe
of it resolves every entry.  The heap holds reference-format entries
only: a fused handler pushes the very callback the reference
component would, so an entry left in the heap by ``step()``,
``run(max_events)`` or an aborted run fires unchanged on either loop.

**Held root.**  The loop peeks at the heap's root instead of popping
it, and a fused handler's first push takes the root's place through
``heapq.heapreplace`` (one sift instead of a pop's and a push's).  A
path that pushes nothing, or that calls foreign code, cancels an
event or raises, pops the root first (an exception pops one still
held), so wherever anything else can look at the heap it holds
exactly the reference loop's entries.  Keys ``(time, seq)`` are
unique, so the firing order cannot change.

**Train keys.**  An open-loop arrival train
(:meth:`~repro.sim.engine.Simulator.post_train`) keeps one heap
entry.  A train whose callback is a fused launch is itself a dispatch
key (found at dispatch build, or registered by ``post_train`` while a
run is under way): its ``_OP_LAUNCH`` replaces the train's entry with
the next member's, under that member's reserved sequence number, then
builds the member's args with the train's ``make_args``.

**Deferred recording.**  With the stock
:class:`~repro.loadgen.measurement.RunSamples` and no completion
hook, completed requests are buffered and written
:data:`~repro.loadgen.measurement.RECORD_CHUNK` at a time through
``RunSamples.record_batch``, flushed before every foreign call so
code outside the fused loop always sees every record, in order.

The fused handlers inline the components' control flow, not their
samplers: every draw is a zero-argument draw bound once per context
(a station's :class:`~repro.sim.sampling.Stream` draws, a link's
standard normal, a cache's hit uniform, a raw client-core generator's
:func:`~repro.sim.sampling.scalar_samplers`), in the reference
components' order and float expressions.  Every link's stream and
the cache's are block-served
(:class:`~repro.sim.sampling.BlockStream`), which changes what a draw
costs, never what it returns.  The client and station bodies choose a
C-state by the governor's own rule, ``bisect_right`` over its
ascending target residencies
(:class:`~repro.hardware.cstates.CStateGovernor`).

A service graph's entry (``ServiceGraph.submit`` -> stock
:class:`~repro.graph.testbed.GraphStage` -> adopted station) is fused
too: the generator's stock ``ServiceGraph.submit`` is one more table
entry, which rewrites its args to the stage's ``(request,
stage._forward, done_fn, *ctx)`` and runs the station's fused submit.
So are a :class:`~repro.cluster.fanout.FanoutService`'s ``_at_root``
(straggler drop, max aggregation, quorum completion) and a
:class:`~repro.graph.cache.CacheTier`'s ``_finish_hit`` and
``_finish_miss``.

A second table, the **completion table**, maps the callback a
completion calls next to its fused body.  The station's FINISH, the
quorum completion and the cache completions resolve their ``done_fn``
through it: a generator's ``_served`` is the hop back to the client,
a fan-out's ``_shard_served`` the shard's return hop over its link,
and the graph entry stage's ``_forward`` into a stock, untraced
:class:`~repro.graph.cache.CacheTier` the cache lookup
(``CacheTier.submit``: the hit draw and the ``_finish_hit`` push).
When that cache's downstream is a stock
:class:`~repro.graph.resilience.ResilientDispatcher` over a stock
leaf stage without a downstream over a fan-out whose links are all
:class:`~repro.net.link.NetworkLink` objects, a miss runs fused too:
the dispatcher's submit and first attempt (the attempt copy and its
timeout :class:`~repro.sim.engine.Event`), the fan-out's submit (its
shard selection, sub-requests, link draws and shard pushes) and the
hedge :class:`~repro.sim.engine.Event`, pushed with the reference
calls' sequence numbers and tallies, in their order.  That
dispatcher's stock ``_responded`` is the response leg: the first
response folds the attempt's timings into the root, counts it and
cancels the call's timers through ``Event.cancel`` (a straggler only
counts), and a stock ``CacheTier._filled`` behind it adds the fill
and pushes ``_finish_miss`` under its own sequence number.  Any other
``done_fn`` (a fill that is not stock, ...) is called as it is.

Fallback: anything the kernel does not recognise -- a cancellable
:class:`~repro.sim.engine.Event` firing (the resilience tier's hedge
and timeout timers) and the retry it posts, an obs-traced component,
a method overridden by a subclass or assigned on the instance, or a
balancer front -- is executed through the ordinary scalar path (an
event is counted in ``kernel_scalar_fallbacks``).  A cache miss that
is not fused (into co-located shards or a non-stock tier) is called
as it is, inside the fused event that reaches it; a hedged or retried
attempt launches inside its timer's scalar event.  A run that adopts
nothing (a traced run, say) skips the fused loop and runs the
reference loop outright.  Correctness never depends on adoption;
adoption only removes interpreter overhead.
"""

from __future__ import annotations

import difflib
import math
from bisect import bisect_right
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.errors import SimulationError, SpecValidationError
from repro.hardware.core import _DEEP_SLEEP_RESIDENCY_US as _DEEP_SLEEP_US
from repro.hardware.cstates import CStateGovernor
from repro.hardware.uncore import UNCORE_RAMP_DOWN_GAP_US as _UNCORE_GAP_US
from repro.loadgen.measurement import RECORD_CHUNK
from repro.net.link import US_PER_KB_10GBE as _US_PER_KB
from repro.server.request import Request
from repro.sim.engine import Event, Simulator, _Train
from repro.sim.sampling import scalar_samplers

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "KernelSimulator",
    "describe_engine",
    "engine_names",
    "make_simulator",
    "validate_engine_name",
]

_PRED_NOISE = CStateGovernor.PREDICTION_NOISE

_exp = math.exp


def _stock(obj: Any, name: str, base: type) -> bool:
    """True when ``obj.<name>`` -- the attribute the reference path
    calls -- is *base*'s own function bound to *obj*: overridden by
    neither a subclass nor an assignment on the instance."""
    method = getattr(obj, name)
    return (getattr(method, "__func__", None) is getattr(base, name)
            and method.__self__ is obj)


# Handler opcodes.  DO_SEND/AT_NIC share one fused client-core body,
# SUBMIT/FINISH/STAGE one fused station body.
_OP_LAUNCH = 0
_OP_DO_SEND = 1
_OP_AT_NIC = 2
_OP_SENT = 3
_OP_SUBMIT = 4
_OP_FINISH = 5
_OP_MEASURED = 6
#: A graph's entry stage: rewrites ``(request, done_fn, *ctx)`` to
#: ``(request, stage._forward, done_fn, *ctx)``, then runs SUBMIT.
_OP_STAGE = 7
#: A shard response at the root: ``FanoutService._at_root``.
_OP_AT_ROOT = 8
#: ``CacheTier._finish_hit`` / ``_finish_miss``.
_OP_CACHE_DONE = 9

# Completion kinds: what a fused completion ``done_fn(job, *ctx)`` runs.
_C_CLIENT = 0  # LoadGenerator._served: the hop back to the client
_C_SHARD = 1  # FanoutService._shard_served: the shard's return hop
_C_LOOKUP = 2  # the entry GraphStage._forward: CacheTier.submit
_C_RESPOND = 3  # ResilientDispatcher._responded, then CacheTier._filled


# ---------------------------------------------------------------- contexts
class _MC:
    """Per-:class:`ClientMachine` context: every constant the fused
    client-core handlers need, hoisted once at dispatch build."""

    __slots__ = ("machine", "do_send", "ts", "send_work", "recv_work",
                 "core", "oscale", "polling", "slack", "freq",
                 "cpoll", "cres", "cstates", "tick", "unc_dyn", "unc_pen",
                 "twake", "nghz", "ramp", "gramps", "draw_u", "draw_n")

    def __init__(self, machine: Any) -> None:
        core = machine.core
        self.machine = machine
        self.do_send = machine._do_send
        self.ts = machine.time_sensitive
        self.send_work = machine.send_work_us
        self.recv_work = machine.recv_work_us
        self.core = core
        self.oscale = core.overhead_scale
        self.polling = core.polling
        self.slack = core.timer._slack_us
        self.freq = core.frequency
        gov = core.cstates
        self.cpoll = gov._poll
        self.cres = gov._residencies
        self.cstates = gov._states
        self.tick = gov._tick_limit_us
        uncore = core.uncore
        self.unc_dyn = uncore._dynamic
        self.unc_pen = uncore._params.uncore_dynamic_penalty_us
        self.twake = core._thread_wake_us
        self.nghz = core._nominal_ghz
        self.ramp = core._wake_dvfs_ramp_us
        self.gramps = core._governor_ramps
        # The core's uniform and normal draws: numpy's C samplers on a
        # raw generator (the client-{m}-{t} streams), a stream's own
        # methods otherwise; None for a deterministic core.
        rng = core._rng
        draws: Any = (scalar_samplers(rng) if rng is not None
                      else (None, None))
        self.draw_u = draws[0]
        self.draw_n = draws[1]


def _link_consts(link: Any) -> Tuple[float, float, float, Any, Any]:
    """A :class:`~repro.net.link.NetworkLink`'s transit constants:
    ``(mu, sigma, mean, normal draw or None, observer or None)``."""
    return (link._mu, link._sigma, link._mean, link._normal,
            link.observer)


class _GC:
    """Per-:class:`LoadGenerator` context."""

    __slots__ = ("gen", "sent", "served", "at_nic", "measured", "record",
                 "after", "submit_cb", "link_s", "rs", "rbuf")

    def __init__(self, gen: Any,
                 after: Optional[Callable[..., None]]) -> None:
        self.gen = gen
        self.sent = gen._sent
        self.served = gen._served
        self.at_nic = gen._at_client_nic
        self.measured = gen._measured
        self.record = gen.samples.record
        self.after = after
        self.submit_cb = gen.service.submit
        self.link_s = _link_consts(gen._link_to_server)
        # Deferred recording (dispatch build enables it when the stock
        # RunSamples/SampleColumns pair is in place and there is no
        # completion hook): completed requests buffer in rbuf and
        # flush in order through rs.record_batch.
        self.rs: Any = None
        self.rbuf: Any = None


class _SC:
    """Per-:class:`ServiceStation` context."""

    __slots__ = ("station", "pool", "queue", "items", "sample", "rng",
                 "env", "smt_on", "intensity", "broad_us", "int_scale",
                 "int_mean", "kstack", "smtf", "fscale", "num", "cpoll",
                 "cres", "cstates", "tick", "pool_done", "service_time",
                 "finish_cb", "obs_on", "normal", "uniform", "expo",
                 "skind", "smu", "ssigma", "sukb")

    def __init__(self, station: Any) -> None:
        pool = station._pool
        smt = station._smt
        gov = station._cstates
        self.station = station
        self.pool = pool
        self.queue = pool.queue
        self.items = pool.queue._items
        self.sample = station.service_model.sample_service_us
        rng = station._rng
        self.rng = rng
        self.env = station._env_scale
        self.smt_on = smt.smt_enabled
        self.intensity = smt.run_intensity
        self.broad_us = smt._broad_us
        self.int_scale = smt._interference_scale
        self.int_mean = smt._interference_mean_us
        self.kstack = station._kernel_stack_us
        self.smtf = station._smt_factor
        self.fscale = station._freq_scale
        self.num = pool.num_servers
        self.cpoll = gov._poll
        self.cres = gov._residencies
        self.cstates = gov._states
        self.tick = gov._tick_limit_us
        self.pool_done = station._pool_done
        self.service_time = station._service_time
        self.finish_cb = pool._finish
        self.obs_on = pool._obs is not None
        # The station stream's zero-argument C draws (None: a
        # deterministic station).
        self.normal = None if rng is None else rng.draw_normal
        self.uniform = None if rng is None else rng.draw_uniform
        self.expo = None if rng is None else rng.draw_exponential
        # Service-model specialization: the two stock lognormal-core
        # models are sampled inline off the station stream.  Exact
        # types only -- a subclass keeps the generic
        # ``sample_service_us`` call.
        from repro.server.service import LognormalService
        from repro.workloads.memcached import EtcServiceModel

        self.skind = 0
        self.smu = 0.0
        self.ssigma = 0.0
        self.sukb = 0.0
        model = station.service_model
        base = None
        kind = 0
        if type(model) is EtcServiceModel:
            if type(model._base) is LognormalService:
                base = model._base
                kind = 2
                self.sukb = EtcServiceModel.US_PER_KB
        elif type(model) is LognormalService:
            base = model
            kind = 1
        if base is not None and rng is not None and base._sigma != 0:
            self.skind = kind
            self.smu = base._mu
            self.ssigma = base._sigma


class _LC:
    """Per-:class:`~repro.graph.cache.CacheTier` lookup context: the
    entry stage's ``_forward`` into the cache, and, when ``fanout`` is
    set, the miss path behind it (a resilient edge over a leaf stage
    over a linked fan-out) fused too."""

    __slots__ = ("cache", "ratio", "uniform", "hit_us", "finish_hit",
                 "filled", "dispatcher", "call_state", "responded",
                 "timeout_us", "timed_out", "hedge_us", "hedge",
                 "fanout", "root_state", "quorum", "select", "indices",
                 "served", "submits", "links")

    def __init__(self, cache: Any) -> None:
        self.cache = cache
        self.ratio = cache.hit_ratio
        self.uniform = cache._uniform
        self.hit_us = cache.hit_service_us
        self.finish_hit = cache._finish_hit
        self.filled = cache._filled
        self.fanout: Any = None

    def fuse_miss(self, dispatcher: Any, fanout: Any, call_state: type,
                  root_state: type) -> None:
        """Hoist ``dispatcher``'s submit and ``fanout``'s submit side."""
        policy = dispatcher.policy
        self.dispatcher = dispatcher
        self.call_state = call_state
        self.responded = dispatcher._responded
        # A fresh call has used no retry: _launch_attempt arms its
        # timeout exactly when the policy allows one.
        self.timeout_us = (policy.timeout_us
                           if policy.timeout_us and policy.max_retries > 0
                           else None)
        self.timed_out = dispatcher._timed_out
        self.hedge_us = policy.hedge_after_us if policy.hedges else None
        self.hedge = dispatcher._hedge
        self.fanout = fanout
        self.root_state = root_state
        self.quorum = fanout.quorum
        count = fanout.num_shards
        # A full fan-out selects every shard without a draw.
        self.select = (None if fanout.fanout == count
                       else fanout.select_shards)
        self.indices = list(range(count))
        self.served = fanout._shard_served
        self.submits = [shard.submit for shard in fanout._shards]
        self.links = [_link_consts(link) for link in fanout._links]


# ------------------------------------------------------------------ kernel
class KernelSimulator(Simulator):
    """Fused-dispatch accelerated simulator (``engine="vectorized"``).

    Bit-identical to :class:`~repro.sim.engine.Simulator` by
    construction: adopted components run through fused handlers that
    replicate the reference float arithmetic and draw order exactly;
    everything else falls back to the ordinary scalar dispatch.
    """

    def __init__(self) -> None:
        super().__init__()
        #: events executed through the scalar fallback path.
        self.kernel_scalar_fallbacks = 0
        self._adopted_generators: list = []
        self._adopted_stations: list = []
        self._adopted_fanouts: list = []
        self._adopted_caches: list = []
        self._dispatch: Optional[Dict[Any, Tuple[int, Any]]] = None
        self._contexts: list = []
        self._minfo: Dict[Any, _MC] = {}
        self._completions: Dict[Any, Tuple[int, Any]] = {}
        self._rec_gcs: list = []

    def post_train(self, times: Sequence[float],
                   callback: Callable[..., Any],
                   make_args: Callable[[int], tuple]) -> int:
        count = super().post_train(times, callback, make_args)
        if self._dispatch is not None:
            # A run is under way: the new train's launches fuse too.
            self._register_trains(self._dispatch)
        return count

    def _register_trains(self, dispatch: Dict[Any, Tuple[int, Any]]) -> None:
        """Key every queued train whose callback is a fused launch."""
        for entry in self._heap:
            train = entry[2]
            if type(train) is _Train:
                handler = dispatch.get(train.callback)
                if handler is not None and handler[0] == _OP_LAUNCH:
                    dispatch[train] = handler

    def _flush_records(self) -> None:
        """Drain deferred completion records into their RunSamples.

        Called before every foreign call of a run that defers records,
        and at kernel exit, so that code outside the fused loop always
        observes fully recorded samples, in exact completion order.
        """
        for gc in self._rec_gcs:
            buf = gc.rbuf
            if buf:
                gc.rs.record_batch(buf)
                del buf[:]

    # ------------------------------------------------------------ adoption
    def adopt_generator(self, generator: Any) -> None:
        """Hook called by :class:`LoadGenerator` at construction."""
        self._adopted_generators.append(generator)
        self._dispatch = None

    def adopt_station(self, station: Any) -> None:
        """Hook called by :class:`ServiceStation` at construction."""
        self._adopted_stations.append(station)
        self._dispatch = None

    def adopt_fanout(self, fanout: Any) -> None:
        """Hook called by :class:`FanoutService` at construction."""
        self._adopted_fanouts.append(fanout)
        self._dispatch = None

    def adopt_cache(self, cache: Any) -> None:
        """Hook called by :class:`CacheTier` at construction."""
        self._adopted_caches.append(cache)
        self._dispatch = None

    def _release(self) -> None:
        """Forget every adoption once the heap has drained.

        Contexts point at the components, which point back at this
        simulator.  The heap holds reference-format entries only, so
        nothing but these tables references a context; dropping them
        breaks every such cycle, and a finished testbed is freed by
        reference counting, as a reference-engine one is.
        """
        self._contexts = []
        self._adopted_generators = []
        self._adopted_stations = []
        self._adopted_fanouts = []
        self._adopted_caches = []
        self._dispatch = None
        self._minfo = {}
        self._completions = {}
        self._rec_gcs = []

    # ------------------------------------------------------------- build
    def _build_dispatch(self) -> Dict[Any, Tuple[int, Any]]:
        """Map stable bound-method callbacks to fused handlers, and
        completion callbacks to fused completions.

        Adoption is per-method and conservative: a generator, machine,
        station, fan-out or cache qualifies only when the exact
        reference implementation would run (exact type, no tracer, no
        overridden method, no bounded queue).  Anything that fails a
        check simply keeps its scalar path: its callback is no key of
        either table.
        """
        from repro.cluster.fanout import FanoutService, _RootState
        from repro.graph.cache import CacheTier
        from repro.graph.resilience import ResilientDispatcher, _CallState
        from repro.graph.testbed import GraphStage, ServiceGraph
        from repro.hardware.core import SimCore
        from repro.hardware.frequency import FrequencyModel
        from repro.hardware.timer import TimerModel
        from repro.hardware.uncore import UncoreModel
        from repro.loadgen.base import LoadGenerator
        from repro.loadgen.client_machine import ClientMachine
        from repro.loadgen.measurement import RunSamples
        from repro.net.link import NetworkLink
        from repro.server.station import ServiceStation
        from repro.sim.resources import ServerPool
        from repro.telemetry.columns import SampleColumns

        dispatch: Dict[Any, Tuple[int, Any]] = {}
        contexts: list = []
        minfo: Dict[Any, _MC] = {}
        completions: Dict[Any, Tuple[int, Any]] = {}
        rec_gcs: list = []
        self._contexts = contexts
        self._minfo = minfo
        self._completions = completions
        self._rec_gcs = rec_gcs

        # Stations first: generators resolve their submit target
        # against the station entries below.
        for station in self._adopted_stations:
            if not isinstance(station, ServiceStation):
                continue
            if station._trace is not None:
                continue
            pool = station._pool
            if not (all(_stock(station, name, ServiceStation)
                        for name in ("submit", "_pool_done",
                                     "_service_time",
                                     "_sample_occupancy_us"))
                    and type(pool) is ServerPool
                    and all(_stock(pool, name, ServerPool)
                            for name in ("submit", "_dispatch",
                                         "_finish"))
                    and pool.queue.capacity is None
                    and type(station._cstates) is CStateGovernor):
                continue
            sc = _SC(station)
            contexts.append(sc)
            dispatch[station.submit] = (_OP_SUBMIT, sc)
            dispatch[sc.finish_cb] = (_OP_FINISH, sc)

        def machine_ok(machine: Any) -> bool:
            core = machine.core
            return (all(_stock(machine, name, ClientMachine)
                        for name in ("begin_send", "_do_send",
                                     "deliver_response"))
                    and type(core) is SimCore
                    and all(_stock(core, name, SimCore)
                            for name in ("timed_sleep_until",
                                         "handle_event_finish_us",
                                         "_occupy"))
                    and type(core.cstates) is CStateGovernor
                    and type(core.frequency) is FrequencyModel
                    and type(core.timer) is TimerModel
                    and type(core.uncore) is UncoreModel)

        def fanout_ok(fanout: Any) -> bool:
            return (type(fanout) is FanoutService
                    and fanout._trace is None
                    and all(link is None or type(link) is NetworkLink
                            for link in fanout._links))

        def lookup(cache: Any) -> Optional[_LC]:
            """The lookup context of a stock cache, with its miss path
            fused when the tiers behind it are stock too."""
            if not (type(cache) is CacheTier and cache._sim is self
                    and cache._trace is None
                    and _stock(cache, "submit", CacheTier)
                    and _stock(cache, "_is_hit", CacheTier)):
                return None
            lc = _LC(cache)
            edge = cache.downstream
            if not (type(edge) is ResilientDispatcher and edge._sim is self
                    and edge._trace is None):
                return lc
            if _stock(edge, "_responded", ResilientDispatcher):
                # The response leg; a stock fill runs fused behind it.
                filled = (lc.filled if _stock(cache, "_filled", CacheTier)
                          else None)
                completions[edge._responded] = (_C_RESPOND, (
                    edge, filled, cache.fill_penalty_us,
                    cache._finish_miss))
            if not (_stock(edge, "submit", ResilientDispatcher)
                    and _stock(edge, "_launch_attempt",
                               ResilientDispatcher)):
                return lc
            leaf = edge.backend
            if not (type(leaf) is GraphStage and leaf.downstream is None
                    and _stock(leaf, "submit", GraphStage)):
                return lc
            fanout = leaf.local
            if (fanout_ok(fanout) and fanout._sim is self
                    and None not in fanout._links
                    and _stock(fanout, "submit", FanoutService)
                    and _stock(fanout, "select_shards", FanoutService)):
                lc.fuse_miss(edge, fanout, _CallState, _RootState)
            return lc

        for gen in self._adopted_generators:
            if not isinstance(gen, LoadGenerator) or gen._trace is not None:
                continue
            for machine in gen.machines:
                if machine not in minfo and machine_ok(machine):
                    mc = _MC(machine)
                    contexts.append(mc)
                    minfo[machine] = mc
                    dispatch[mc.do_send] = (_OP_DO_SEND, mc)
            if not (type(gen._link_to_server) is NetworkLink
                    and type(gen._link_to_client) is NetworkLink):
                continue
            after: Optional[Callable[..., None]] = gen._after_completion
            if _stock(gen, "_after_completion", LoadGenerator):
                after = None
            gc = _GC(gen, after)
            contexts.append(gc)
            if _stock(gen, "_launch", LoadGenerator):
                dispatch[gc.gen._launch] = (_OP_LAUNCH, gc)
            if _stock(gen, "_sent", LoadGenerator):
                dispatch[gc.sent] = (_OP_SENT, gc)
            if _stock(gen, "_at_client_nic", LoadGenerator):
                dispatch[gc.at_nic] = (_OP_AT_NIC, gc)
            if _stock(gen, "_measured", LoadGenerator):
                dispatch[gc.measured] = (_OP_MEASURED, gc)
                samples = gen.samples
                if (after is None
                        and type(samples) is RunSamples
                        and _stock(samples, "record", RunSamples)
                        and type(samples._columns) is SampleColumns):
                    gc.rs = samples
                    gc.rbuf = []
                    rec_gcs.append(gc)
            if _stock(gen, "_served", LoadGenerator):
                completions[gc.served] = (_C_CLIENT, (
                    gc.at_nic, _link_consts(gen._link_to_client)))
            if (type(gen.service) is ServiceGraph
                    and _stock(gen.service, "submit", ServiceGraph)):
                # ServiceGraph.submit -> GraphStage.submit -> the entry
                # station: fuse the chain into the station's SUBMIT,
                # and the stage's forward hop into a cache as a
                # completion.
                stage = gen.service._entry
                if (type(stage) is GraphStage
                        and _stock(stage, "_forward", GraphStage)
                        and stage.downstream is not None):
                    sub = dispatch.get(stage.local.submit)
                    if (_stock(stage, "submit", GraphStage)
                            and sub is not None and sub[0] == _OP_SUBMIT):
                        dispatch[gc.submit_cb] = (
                            _OP_STAGE, (sub[1], stage._forward))
                    lc = lookup(stage.downstream)
                    if lc is not None:
                        completions[stage._forward] = (_C_LOOKUP, lc)

        for fanout in self._adopted_fanouts:
            if not fanout_ok(fanout):
                continue
            if _stock(fanout, "_at_root", FanoutService):
                dispatch[fanout._at_root] = (_OP_AT_ROOT, fanout)
            if _stock(fanout, "_shard_served", FanoutService):
                # Per shard, the return link (None: co-located, its
                # _shard_served calls _at_root directly).
                completions[fanout._shard_served] = (_C_SHARD, (
                    fanout._at_root,
                    [None if link is None else _link_consts(link)
                     for link in fanout._links]))

        for cache in self._adopted_caches:
            if type(cache) is not CacheTier or cache._trace is not None:
                continue
            for name in ("_finish_hit", "_finish_miss"):
                if _stock(cache, name, CacheTier):
                    dispatch[getattr(cache, name)] = (_OP_CACHE_DONE, None)

        self._register_trains(dispatch)
        self._dispatch = dispatch
        return dispatch

    # --------------------------------------------------------------- run
    def run(self, max_events: Optional[int] = None) -> int:
        if max_events is not None:
            return super().run(max_events)
        dispatch = self._dispatch
        if dispatch is None:
            dispatch = self._build_dispatch()
        if dispatch:
            fired = self._run_kernel(dispatch)
        else:
            # A run that adopted nothing (every component traced, say)
            # gains nothing from the fused loop: run the reference one.
            fired = super().run()
            self.kernel_scalar_fallbacks += fired
        self._release()
        return fired

    def _run_kernel(self, dispatch: Dict[Any, Tuple[int, Any]]) -> int:
        # The fused main loop.  Deferred clock: ``now`` lives in a
        # local; ``self._now`` is written back immediately before any
        # foreign call (scalar callbacks, a train's make_args,
        # pool._dispatch, completion hooks) and in the finally block,
        # and ``now``/``heap`` are refetched after every foreign call
        # (a callback may cancel events, and _note_cancelled's
        # compaction *rebinds* self._heap).
        #
        # Held root: the current entry stays the heap's root until its
        # handler's first push takes its place (heapreplace: one sift
        # for a pop and a push); a path that pushes nothing, calls
        # foreign code or cancels pops it first, so whatever can look
        # at the heap sees the reference loop's entries.
        fired = 0
        scalar = 0
        now = self._now
        nseq = self._seq.__next__
        minfo_get = self._minfo.get
        dispatch_get = dispatch.get
        completion_get = self._completions.get
        flushrec = self._flush_records
        # Only deferred records need flushing before a foreign call;
        # runs without them (streaming sink, hooks) skip every flush.
        defer = bool(self._rec_gcs)
        Tt = _Train

        heap = self._heap
        entry: Any = None
        # heapreplace while the root is held, heappush after.
        push: Callable[[list, tuple], Any]
        try:
            while heap:
                entry = heap[0]
                h = entry[2]
                handler = dispatch_get(h)
                if handler is None:
                    heappop(heap)
                    if len(entry) == 3:
                        if h.cancelled:
                            self._cancelled_in_heap -= 1
                            continue
                        h.fired = True
                time = entry[0]
                if time > now:
                    now = time
                elif time < now - 1e-9:
                    raise SimulationError(
                        f"event at t={time} is behind clock t={now}"
                    )
                fired += 1
                if handler is None:
                    # An Event, or a callback the table does not fuse.
                    scalar += 1
                    self._now = now
                    if defer:
                        flushrec()
                    if len(entry) == 3:
                        h.callback(*h.args)
                    else:
                        h(*entry[3])
                    now = self._now
                    heap = self._heap
                    continue
                op, data = handler
                args = entry[3]

                if op == 1 or op == 2:  # _OP_DO_SEND / _OP_AT_NIC
                    # Client core event: one fused SimCore._occupy
                    # body for both the send and the receive side --
                    # identical branches, float expressions and draw
                    # sequence, with the C-state governor, uncore and
                    # frequency fast paths inlined (stateful slow
                    # paths still delegate to the model objects).
                    if op == 1:
                        mc = data
                        work = mc.send_work
                        wt = args[0]
                    else:
                        mc = minfo_get(args[0])
                        if mc is None:
                            heappop(heap)
                            scalar += 1
                            self._now = now
                            if defer:
                                flushrec()
                            h(*args)
                            now = self._now
                            heap = self._heap
                            continue
                        args[1].client_nic_us = now
                        work = mc.recv_work
                        wt = mc.ts
                    core = mc.core
                    if now < core._last_arrival - 1e-9:
                        raise ValueError(
                            f"event at {now} precedes earlier arrival "
                            f"{core._last_arrival}"
                        )
                    core._last_arrival = now
                    gap = core._available_at - now
                    if gap > 0.0:
                        queue_wait = gap
                        idle_gap = 0.0
                    else:
                        queue_wait = 0.0
                        idle_gap = -gap if gap < 0.0 else 0.0
                    start = now + queue_wait
                    wake = 0.0
                    dvfs = 0.0
                    unc = 0.0
                    cswitch = 0.0
                    freq_model = mc.freq
                    if mc.polling:
                        if idle_gap > 0:
                            freq_model._busy_accum_us += idle_gap
                    elif queue_wait == 0.0:
                        # CStateGovernor.wake_and_state, inlined.
                        if not mc.cpoll:
                            predicted = idle_gap
                            draw_n = mc.draw_n
                            if draw_n is not None and idle_gap > 0:
                                noise = 1.0 + _PRED_NOISE * draw_n()
                                if noise < 0.0:
                                    noise = 0.0
                                predicted = idle_gap * noise
                            tick = mc.tick
                            if tick is not None and predicted > tick:
                                predicted = tick
                            chosen = mc.cstates[bisect_right(mc.cres,
                                                             predicted)]
                            wake = chosen.exit_latency_us
                            if wake > idle_gap:
                                wake = idle_gap
                            if (wake > 0.0 and mc.gramps
                                    and chosen.target_residency_us
                                    >= _DEEP_SLEEP_US):
                                dvfs = mc.ramp
                        if mc.unc_dyn and idle_gap > _UNCORE_GAP_US:
                            unc = mc.unc_pen
                        if wt:
                            cswitch = mc.twake
                    # FrequencyModel.evaluate_fast, steady branch.
                    if (start - freq_model._window_start
                            < freq_model._interval_us):
                        freq, stall = freq_model._steady
                    else:
                        freq, stall = freq_model.evaluate_fast(start)
                    if mc.polling:
                        stall = 0.0
                    overhead = (wake + dvfs + unc + cswitch
                                + stall) * mc.oscale
                    work_us = work * (mc.nghz / freq)
                    finish = start + overhead + work_us
                    busy = finish - start
                    freq_model._busy_accum_us += busy
                    core.total_busy_us += busy
                    core.total_wake_us += wake
                    core.events_handled += 1
                    core._available_at = finish
                    if op == 1:
                        mc.machine.requests_sent += 1
                        heapreplace(heap, (now + (finish - now), nseq(),
                                           args[1], args[2] + (finish,)))
                    else:
                        mc.machine.responses_handled += 1
                        heapreplace(heap, (now + (finish - now), nseq(),
                                           data.measured,
                                           (args[0], args[1], finish)))
                elif op == 3:  # _OP_SENT
                    # Link transit client->server.
                    gcs = data
                    request = args[1]
                    request.actual_send_us = args[2]
                    mu, sigma, mean, normal, observer = gcs.link_s
                    base = (mean if normal is None
                            else _exp(mu + sigma * normal()))
                    kb = request.size_kb
                    if observer is not None:
                        observer.messages += 1
                        observer.kb += kb
                    delay = base + kb * _US_PER_KB if kb > 0.0 else base
                    heapreplace(heap, (now + delay, nseq(), gcs.submit_cb,
                                       (request, gcs.served, args[0])))
                elif op == 0:  # _OP_LAUNCH
                    # Arrival admission: begin_send + timer model.  A
                    # train's next member replaces its entry, then the
                    # member's args are built (a foreign call that
                    # reads no run records).
                    if type(h) is Tt:
                        index = h._next
                        after = index + 1
                        h._next = after
                        times = h._times
                        if after < len(times):
                            heapreplace(heap, (times[after],
                                               h._seq0 + after, h, ()))
                        else:
                            heappop(heap)
                        push = heappush
                        self._now = now
                        args = h.make_args(index)
                        now = self._now
                        heap = self._heap
                    else:
                        push = heapreplace
                    machine = args[0]
                    request = args[1]
                    mc = minfo_get(machine)
                    if mc is None:
                        if push is heapreplace:
                            heappop(heap)
                        scalar += 1
                        self._now = now
                        if defer:
                            flushrec()
                        cbx = h.callback if type(h) is Tt else h
                        cbx(*args)
                        now = self._now
                        heap = self._heap
                        continue
                    gcl = data
                    intended = request.intended_send_us
                    if mc.ts:
                        target = intended if intended >= now else now
                        draw_u = mc.draw_u
                        if draw_u is None:
                            overshoot = mc.slack / 2.0
                        else:
                            overshoot = mc.slack * draw_u()
                        wake = target + overshoot * mc.oscale
                        # post_at arithmetic: now + (t - now).
                        push(heap, (now + (wake - now), nseq(), mc.do_send,
                                    (True, gcl.sent, (machine, request))))
                    else:
                        delay = intended - now
                        if not (delay >= 0.0):
                            raise SimulationError(
                                f"cannot schedule in the past: {delay!r}")
                        push(heap, (now + delay, nseq(), mc.do_send,
                                    (False, gcl.sent, (machine, request))))
                elif op == 6:  # _OP_MEASURED
                    heappop(heap)
                    gcm = data
                    request = args[1]
                    request.measured_complete_us = args[2]
                    self._now = now
                    rb = gcm.rbuf
                    if rb is not None:
                        # Deferred columnar recording: buffered here,
                        # flushed in completion order before any
                        # foreign call can observe the samples, and
                        # every RECORD_CHUNK completions so a fused
                        # run never holds its finished requests.
                        rb.append(request)
                        if len(rb) >= RECORD_CHUNK:
                            gcm.rs.record_batch(rb)
                            del rb[:]
                    else:
                        gcm.record(request)
                    gcm.gen.completed += 1
                    if gcm.after is not None:
                        if defer:
                            flushrec()
                        gcm.after(args[0], request)
                        now = self._now
                        heap = self._heap
                else:
                    # The station (SUBMIT / STAGE / FINISH) and the
                    # graph's completions (AT_ROOT / CACHE_DONE).
                    if op == 4 or op == 7:  # _OP_SUBMIT / _OP_STAGE
                        if op == 7:  # GraphStage.submit's forwarding
                            # as data, then the station's SUBMIT.
                            data, fwd = data
                            args = (args[0], fwd) + args[1:]
                        sc = data
                        pool = sc.pool
                        idle = pool._idle_servers
                        items = sc.items
                        job = args[0]
                        if job.server_arrival_us == 0.0:
                            job.server_arrival_us = now
                        if not idle:
                            # All workers busy: queue, track depth.
                            heappop(heap)
                            items.append(
                                (now, (job, sc.service_time,
                                       sc.pool_done, (args[1], args[2:]))))
                            sc.queue.total_enqueued += 1
                            if sc.obs_on:
                                depth = len(items)
                                if depth > pool.peak_queue_depth:
                                    pool.peak_queue_depth = depth
                            continue
                        if items:  # pragma: no cover - invariant guard
                            # Not h: an _OP_STAGE hit has rewritten
                            # the args.
                            heappop(heap)
                            scalar += 1
                            self._now = now
                            if defer:
                                flushrec()
                            sc.station.submit(*args)
                            now = self._now
                            heap = self._heap
                            continue
                        # Fast path: a worker is free, zero wait.
                        sc.queue.total_enqueued += 1
                        server = idle.pop()
                        waited = 0.0
                        done_fn = sc.pool_done
                        dctx = (args[1], args[2:])
                        push = heapreplace
                    else:
                        # A completion: the event's own body sets
                        # ``cfn(cjob, *cctx)``, the callback it calls
                        # next, and the completion table resolves it.
                        # Every kind below replaces or pops the root.
                        if op == 5:  # _OP_FINISH: ServerPool._finish
                            sc = data
                            pool = sc.pool
                            idle = pool._idle_servers
                            items = sc.items
                            server = args[0]
                            cjob = args[1]
                            pool.idle_since[server] = now
                            idle.append(server)
                            pool.jobs_completed += 1
                            cfn = args[3]
                            if cfn is sc.pool_done or cfn == sc.pool_done:
                                dctx = args[4]
                                cjob.queue_wait_us += args[2]
                                cjob.server_departure_us = now
                                cfn = dctx[0]
                                cctx = dctx[1]
                            else:
                                cctx = (args[2],) + args[4]
                        elif op == 8:  # _OP_AT_ROOT
                            # FanoutService._at_root: subs_completed
                            # counts stragglers too.
                            data.subs_completed += 1
                            state = args[1]
                            if state.completed:
                                heappop(heap)
                                continue  # a straggler past the quorum
                            sub = args[2]
                            if sub.service_us > state.max_service_us:
                                state.max_service_us = sub.service_us
                            if sub.queue_wait_us > state.max_queue_wait_us:
                                state.max_queue_wait_us = sub.queue_wait_us
                            state.pending -= 1
                            if state.pending > 0:
                                heappop(heap)
                                continue
                            state.completed = True
                            cjob = args[0]
                            cjob.service_us += state.max_service_us
                            cjob.queue_wait_us += state.max_queue_wait_us
                            cjob.server_departure_us = now
                            data.roots_completed += 1
                            cfn = state.done_fn
                            cctx = state.ctx
                        else:  # _OP_CACHE_DONE: _finish_hit/_finish_miss
                            cjob = args[0]
                            cjob.server_departure_us = now
                            cfn = args[1]
                            cctx = args[3:]
                        kind, cdata = completion_get(cfn, (-1, None))
                        if kind == 0:  # _C_CLIENT: the client hop
                            target, link = cdata
                            cargs = (cctx[0], cjob)
                        elif kind == 1:  # _C_SHARD: the shard's hop
                            target, links = cdata
                            link = links[cctx[2]]
                            cargs = (cctx[0], cctx[1], cjob, cctx[2],
                                     cctx[3])
                        else:
                            link = None
                        if link is not None:
                            # NetworkLink.sample_latency_us, then
                            # Simulator.post.
                            mu, sigma, mean, normal, observer = link
                            base = (mean if normal is None
                                    else _exp(mu + sigma * normal()))
                            kb = cjob.size_kb
                            if observer is not None:
                                observer.messages += 1
                                observer.kb += kb
                            delay = (base + kb * _US_PER_KB
                                     if kb > 0.0 else base)
                            heapreplace(heap, (now + delay, nseq(), target,
                                               cargs))
                        elif kind == 2:  # _C_LOOKUP: CacheTier.submit
                            lc = cdata
                            cache = lc.cache
                            if cjob.server_arrival_us == 0.0:
                                cjob.server_arrival_us = now
                            ratio = lc.ratio
                            if ratio >= 1.0 or (ratio > 0.0 and
                                                lc.uniform() < ratio):
                                cache.hits += 1
                                cjob.service_us += lc.hit_us
                                heapreplace(heap, (
                                    now + lc.hit_us, nseq(), lc.finish_hit,
                                    (cjob, cctx[0], now) + cctx[1:]))
                            elif lc.fanout is None:
                                heappop(heap)
                                cache.misses += 1
                                self._now = now
                                if defer:
                                    flushrec()
                                cache.downstream.submit(
                                    cjob, lc.filled, cctx[0], now,
                                    *cctx[1:])
                                now = self._now
                                heap = self._heap
                            else:
                                # The miss: ResilientDispatcher.submit
                                # and _launch_attempt, the leaf stage,
                                # then FanoutService.submit.
                                cache.misses += 1
                                edge = lc.dispatcher
                                edge.calls += 1
                                state = lc.call_state(
                                    cjob, lc.filled,
                                    (cctx[0], now) + cctx[1:])
                                edge.attempts_issued += 1
                                rid = cjob.request_id
                                kb = cjob.size_kb
                                intended = cjob.intended_send_us
                                actual = cjob.actual_send_us
                                attempt = Request(rid, kb, intended,
                                                  actual)
                                push = heapreplace
                                delay = lc.timeout_us
                                if delay is not None:
                                    ev = Event(now + delay, nseq(),
                                               lc.timed_out, (state,),
                                               self)
                                    push(heap, (ev.time, ev.seq, ev))
                                    push = heappush
                                    state.timeout_event = ev
                                attempt.server_arrival_us = now
                                select = lc.select
                                selected = (lc.indices if select is None
                                            else select())
                                root = lc.root_state(
                                    lc.quorum, lc.responded, (state,))
                                kb = kb / len(selected)
                                lc.fanout.subs_issued += len(selected)
                                served = lc.served
                                submits = lc.submits
                                links = lc.links
                                shard_counts = lc.fanout.shard_dispatched
                                for index in selected:
                                    shard_counts[index] += 1
                                    sub = Request(rid, kb, intended,
                                                  actual)
                                    (mu, sigma, mean, normal,
                                     observer) = links[index]
                                    base = (mean if normal is None
                                            else _exp(mu + sigma
                                                      * normal()))
                                    if observer is not None:
                                        observer.messages += 1
                                        observer.kb += kb
                                    delay = (base + kb * _US_PER_KB
                                             if kb > 0.0 else base)
                                    push(heap, (
                                        now + delay, nseq(),
                                        submits[index],
                                        (sub, served, attempt, root,
                                         index, now)))
                                    push = heappush
                                delay = lc.hedge_us
                                if delay is not None:
                                    ev = Event(now + delay, nseq(),
                                               lc.hedge, (state,), self)
                                    push(heap, (ev.time, ev.seq, ev))
                                    push = heappush
                                    state.hedge_event = ev
                                if push is heapreplace:
                                    heappop(heap)
                        elif kind == 3:  # _C_RESPOND
                            # ResilientDispatcher._responded: the first
                            # response wins, a straggler only drains.
                            heappop(heap)
                            edge, filled, penalty, finish_miss = cdata
                            edge.attempts_completed += 1
                            state = cctx[0]
                            if not state.completed:
                                state.completed = True
                                ev = state.timeout_event
                                if ev is not None:
                                    ev.cancel()
                                    state.timeout_event = None
                                ev = state.hedge_event
                                if ev is not None:
                                    ev.cancel()
                                    state.hedge_event = None
                                # A cancel may compact (rebind) the heap.
                                heap = self._heap
                                root = state.root
                                root.service_us += cjob.service_us
                                root.queue_wait_us += cjob.queue_wait_us
                                root.server_departure_us = now
                                edge.roots_completed += 1
                                if state.done_fn is filled:
                                    # CacheTier._filled: the fill, then
                                    # the _finish_miss post.
                                    root.service_us += penalty
                                    heappush(heap, (
                                        now + penalty, nseq(), finish_miss,
                                        (root,) + state.ctx))
                                else:
                                    self._now = now
                                    if defer:
                                        flushrec()
                                    state.done_fn(root, *state.ctx)
                                    now = self._now
                                    heap = self._heap
                        else:
                            # Not in the table (or a co-located shard):
                            # called as it is.
                            heappop(heap)
                            self._now = now
                            if defer:
                                flushrec()
                            cfn(cjob, *cctx)
                            now = self._now
                            heap = self._heap
                        if op != 5:
                            continue
                        # ServerPool._dispatch tail: the overwhelmingly
                        # common case -- one freed worker picks up one
                        # queued job through the stock service-time
                        # callback -- runs the fused occupancy body
                        # below; anything else restores the popped
                        # state and delegates.
                        if not (items and idle):
                            continue
                        server = idle.pop()
                        enq, item = items.popleft()
                        stf = item[1]
                        if not (stf is sc.service_time
                                or stf == sc.service_time):
                            idle.append(server)
                            items.appendleft((enq, item))
                            self._now = now
                            if defer:
                                flushrec()
                            pool._dispatch()
                            now = self._now
                            heap = self._heap
                            continue
                        job = item[0]
                        waited = now - enq
                        done_fn = item[2]
                        dctx = item[3]
                        push = heappush
                    # ServiceStation._service_time with
                    # _sample_occupancy_us fused in.
                    idle_gap = now - pool.idle_since[server]
                    busy_m1 = sc.num - len(idle) - 1
                    if busy_m1 < 0:
                        busy_m1 = 0
                    utilization = busy_m1 / sc.num
                    skind = sc.skind
                    if skind:
                        base = _exp(sc.smu + sc.ssigma * sc.normal())
                        if skind == 2:
                            base += job.size_kb * sc.sukb
                    else:
                        if push is heapreplace:
                            heappop(heap)
                            push = heappush
                        self._now = now
                        if defer:
                            flushrec()
                        base = sc.sample(sc.rng, job)
                        heap = self._heap
                    base = (base + sc.kstack) * sc.env
                    base *= sc.smtf
                    if not sc.smt_on:
                        # SmtModel.interference_us, inlined.
                        u = utilization
                        if u < 0.0:
                            u = 0.0
                        elif u > 1.0:
                            u = 1.0
                        intensity = sc.intensity
                        broad = u * intensity * sc.broad_us
                        probability = sc.int_scale * u * intensity
                        if probability > 1.0:
                            probability = 1.0
                        uniform = sc.uniform
                        if uniform is None:
                            base += broad + probability * sc.int_mean
                        elif uniform() < probability:
                            base += broad + sc.int_mean * sc.expo()
                        else:
                            base += broad
                    scaled = base * sc.fscale
                    if sc.cpoll:
                        wake = 0.0
                    else:
                        # CStateGovernor.wake_and_state, inlined.
                        predicted = idle_gap
                        normal = sc.normal
                        if normal is not None and idle_gap > 0:
                            noise = 1.0 + _PRED_NOISE * normal()
                            if noise < 0.0:
                                noise = 0.0
                            predicted = idle_gap * noise
                        tick = sc.tick
                        if tick is not None and predicted > tick:
                            predicted = tick
                        wake = sc.cstates[bisect_right(
                            sc.cres, predicted)].exit_latency_us
                        if wake > idle_gap:
                            wake = idle_gap
                    occupancy = scaled + wake
                    job.service_us += occupancy
                    if occupancy < 0:
                        raise SimulationError(
                            f"negative service time {occupancy} "
                            f"for job {job!r}")
                    pool.busy_time_us += occupancy
                    push(heap, (now + occupancy, nseq(), sc.finish_cb,
                                (server, job, waited, done_fn, dctx)))
                    if items and idle:
                        self._now = now
                        if defer:
                            flushrec()
                        pool._dispatch()
                        now = self._now
                        heap = self._heap
        finally:
            # A raising body may leave its event held: it was consumed,
            # as on the reference loop.
            heap = self._heap
            if heap and heap[0] is entry:
                heappop(heap)
            self._now = now
            flushrec()
            self._events_processed += fired
            self.kernel_scalar_fallbacks += scalar
        return fired


# ----------------------------------------------------------------- registry
DEFAULT_ENGINE = "vectorized"

ENGINES: Dict[str, Tuple[Callable[[], Simulator], str]] = {
    "reference": (
        Simulator,
        "pure-Python event loop -- the reference implementation",
    ),
    "vectorized": (
        KernelSimulator,
        "fused-handler event kernel; bit-identical to the reference, "
        "the default",
    ),
}


def engine_names() -> Tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(ENGINES))


def validate_engine_name(name: str) -> str:
    """Validate *name* against the registry with a did-you-mean hint.

    Mirrors the sink registry's contract: unknown names fail fast with
    a :class:`~repro.errors.SpecValidationError` before any condition
    executes.
    """
    key = str(name)
    if key in ENGINES:
        return key
    close = difflib.get_close_matches(key, list(ENGINES), n=1)
    hint = f" -- did you mean {close[0]!r}?" if close else ""
    raise SpecValidationError(
        f"unknown engine {key!r}{hint} "
        f"(registered engines: {', '.join(engine_names())})")


def describe_engine(name: str) -> str:
    """One-line description of a registered engine."""
    return ENGINES[validate_engine_name(name)][1]


def make_simulator(name: Optional[str] = None) -> Simulator:
    """Construct the simulator for *name* (default: the fused kernel;
    ``"reference"`` is the pure-Python loop it is checked against)."""
    key = DEFAULT_ENGINE if name is None else validate_engine_name(name)
    return ENGINES[key][0]()
