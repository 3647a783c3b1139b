"""Social Network testbed (DeathStarBench) on a real social graph.

The paper deploys DeathStarBench's Social Network on one node with
Docker Swarm, initializes the social graph with the Reed98 Facebook
network (962 users), fills the database with compose-post queries, and
then issues only read-user-timeline requests through an extended wrk2
with 20 connections.

We build a Reed98-scale power-law social graph with networkx, perform
the compose-post fill over it, and derive the read-user-timeline
request path: frontend (nginx) -> user-timeline service -> post
storage, where the timeline length distribution comes from the filled
graph.  End-to-end latency is 2-3 ms average / 10-20 ms p99, the
paper's "high response latency" regime where client configuration no
longer matters much (Fig. 6).
"""

from __future__ import annotations


from functools import lru_cache
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.config.knobs import HardwareConfig
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.server.service import LognormalService
from repro.server.station import ServiceStation
from repro.server.tiers import TierSpec, TieredService
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams

if TYPE_CHECKING:
    import networkx as nx

#: Reed98 Facebook network scale [36].
REED98_NODES = 962
REED98_EDGES_PER_NODE = 10
#: compose-post operations used to fill the database before each run.
FILL_POSTS = 5_000
#: Timeline page size (posts returned per read-user-timeline).
TIMELINE_PAGE = 40

#: Tier service parameters at nominal frequency.
FRONTEND_SERVICE_US = 250.0
FRONTEND_SIGMA = 0.30
FRONTEND_WORKERS = 4
TIMELINE_BASE_US = 550.0
TIMELINE_US_PER_POST = 22.0
TIMELINE_WORKERS = 2
STORAGE_SERVICE_US = 800.0
STORAGE_SIGMA = 1.0
STORAGE_WORKERS = 2

#: Timeline response payload per request.
SOCIAL_MESSAGE_KB = 4.0


@lru_cache(maxsize=4)
def social_graph(seed: int = 98) -> "nx.Graph":
    """A Reed98-scale power-law clustered social graph."""
    import networkx as nx
    return nx.powerlaw_cluster_graph(
        REED98_NODES, REED98_EDGES_PER_NODE, 0.3, seed=seed)


@lru_cache(maxsize=4)
def timeline_length_distribution(seed: int = 98) -> Tuple[int, ...]:
    """Per-read timeline lengths after the compose-post fill.

    Posts are composed by users in proportion to their degree (popular
    users post more), and reads target users the same way; the result
    is the empirical timeline-length table the service model draws
    from.
    """
    graph = social_graph(seed)
    rng = np.random.default_rng(seed)
    degrees = np.array([graph.degree(node) for node in graph.nodes()],
                       dtype=float)
    weights = degrees / degrees.sum()
    authors = rng.choice(len(degrees), size=FILL_POSTS, p=weights)
    posts_per_user = np.bincount(authors, minlength=len(degrees))
    reads = rng.choice(len(degrees), size=4_000, p=weights)
    lengths = np.minimum(posts_per_user[reads], TIMELINE_PAGE)
    return tuple(int(v) for v in lengths)


class TimelineServiceModel:
    """read-user-timeline cost: base plus per-post retrieval."""

    def __init__(self, lengths: Tuple[int, ...]) -> None:
        if not lengths:
            raise ValueError("timeline length table is empty")
        self._lengths = np.asarray(lengths, dtype=float)
        self._mean = float(
            TIMELINE_BASE_US
            + TIMELINE_US_PER_POST * float(np.mean(self._lengths)))

    def sample_service_us(self, rng=None, request: Request = None) -> float:
        if rng is None:
            return self._mean
        length = float(rng.choice(self._lengths))
        return TIMELINE_BASE_US + TIMELINE_US_PER_POST * length

    def mean_service_us(self) -> float:
        return self._mean


def _socialnetwork_service(sim: Simulator, streams: RandomStreams,
                           server_config: HardwareConfig,
                           params: SkylakeParameters = DEFAULT_PARAMETERS,
                           *, env_scale: float = 1.0,
                           name: str = "social-network",
                           stream_prefix: str = "") -> TieredService:
    """One Social Network node: frontend -> timeline -> storage.

    ``stream_prefix`` namespaces the tiers' random streams so cluster
    nodes draw independently; the empty prefix reproduces the
    single-server testbed's exact historical stream names.
    """
    frontend = ServiceStation(
        sim, server_config,
        LognormalService(FRONTEND_SERVICE_US, FRONTEND_SIGMA),
        workers=FRONTEND_WORKERS,
        rng=streams.stream(stream_prefix + "frontend"),
        params=params, name="nginx", env_scale=env_scale)
    timeline = ServiceStation(
        sim, server_config,
        TimelineServiceModel(timeline_length_distribution()),
        workers=TIMELINE_WORKERS,
        rng=streams.stream(stream_prefix + "timeline"),
        params=params, name="user-timeline", env_scale=env_scale)
    storage = ServiceStation(
        sim, server_config,
        LognormalService(STORAGE_SERVICE_US, STORAGE_SIGMA),
        workers=STORAGE_WORKERS,
        rng=streams.stream(stream_prefix + "storage"),
        params=params, name="post-storage", env_scale=env_scale)

    # All services share one node (Docker Swarm on a single machine),
    # so inter-tier hops cross loopback: no wire latency.
    return TieredService(sim, [
        TierSpec(station=frontend),
        TierSpec(station=timeline),
        TierSpec(station=storage),
    ], name=name)


def _socialnetwork_request_factory(streams: RandomStreams):
    def request_factory(index: int) -> Request:
        return Request(request_id=index, size_kb=SOCIAL_MESSAGE_KB)

    return request_factory
