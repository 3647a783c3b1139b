"""HDSearch testbed: a 3-tier image-similarity service (MicroSuite).

The paper deploys HDSearch on 3 machines -- client, midtier, bucket --
with the MicroSuite paper's configuration, processes pinned to cores.
The midtier coordinates the query and fans out to bucket servers that
scan LSH candidate sets; the service's end-to-end latency is
millisecond-scale (~10x Memcached), which is what makes it the paper's
"high response latency" contrast (Fig. 4).

The bucket tier's service time is ``base + per_candidate * count``
with counts drawn from calibration queries against the *real* LSH
index in :mod:`repro.workloads.hdsearch_lsh`.
"""

from __future__ import annotations


import numpy as np

from repro.config.knobs import HardwareConfig
from repro.net.link import NetworkLink, link_stream
from repro.parameters import DEFAULT_PARAMETERS, SkylakeParameters
from repro.server.request import Request
from repro.server.service import LognormalService
from repro.server.station import ServiceStation
from repro.server.tiers import TierSpec, TieredService
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.workloads.hdsearch_lsh import default_candidate_counts

#: Midtier request coordination cost (gRPC handling + merge).
MIDTIER_SERVICE_US = 60.0
MIDTIER_SIGMA = 0.25
MIDTIER_WORKERS = 4

#: Bucket-tier scan cost: fixed overhead plus per-candidate distance
#: computation at nominal frequency.
BUCKET_BASE_US = 120.0
BUCKET_US_PER_CANDIDATE = 1.1
BUCKET_WORKERS = 4
#: Parallel bucket lookups per query (max-of-fanout semantics).
BUCKET_FANOUT = 4

#: Query/response payload: a 64-dim float vector + result metadata.
HDSEARCH_MESSAGE_KB = 2.0


class BucketServiceModel:
    """LSH-scan service time driven by calibrated candidate counts."""

    def __init__(self, counts: tuple) -> None:
        if not counts:
            raise ValueError("candidate count table is empty")
        self._counts = np.asarray(counts, dtype=float)
        self._mean = float(
            BUCKET_BASE_US
            + BUCKET_US_PER_CANDIDATE * float(np.mean(self._counts)))

    def sample_service_us(self, rng=None, request: Request = None) -> float:
        if rng is None:
            return self._mean
        count = float(rng.choice(self._counts))
        return BUCKET_BASE_US + BUCKET_US_PER_CANDIDATE * count

    def mean_service_us(self) -> float:
        return self._mean


def _hdsearch_service(sim: Simulator, streams: RandomStreams,
                      server_config: HardwareConfig,
                      params: SkylakeParameters = DEFAULT_PARAMETERS,
                      *, env_scale: float = 1.0,
                      name: str = "hdsearch",
                      stream_prefix: str = "") -> TieredService:
    """One HDSearch midtier+bucket deployment (a replicable group).

    ``stream_prefix`` namespaces the tiers' random streams so cluster
    nodes draw independently; the empty prefix reproduces the
    single-server testbed's exact historical stream names.
    """
    midtier = ServiceStation(
        sim, server_config,
        LognormalService(MIDTIER_SERVICE_US, MIDTIER_SIGMA),
        workers=MIDTIER_WORKERS,
        rng=streams.stream(stream_prefix + "midtier"),
        params=params,
        name=f"{name}-midtier",
        env_scale=env_scale,
    )
    bucket = ServiceStation(
        sim, server_config,
        BucketServiceModel(default_candidate_counts()),
        workers=BUCKET_WORKERS,
        rng=streams.stream(stream_prefix + "bucket"),
        params=params,
        name=f"{name}-bucket",
        env_scale=env_scale,
    )
    inter_tier = NetworkLink(
        params, link_stream(streams, stream_prefix + "network-tiers"))
    return TieredService(sim, [
        TierSpec(station=midtier, fanout=1, hop_link=None),
        TierSpec(station=bucket, fanout=BUCKET_FANOUT, hop_link=inter_tier),
    ], name=name)


def _hdsearch_request_factory(streams: RandomStreams):
    def request_factory(index: int) -> Request:
        return Request(request_id=index, size_kb=HDSEARCH_MESSAGE_KB)

    return request_factory
