"""Helpers shared by the testbed assembly's topologies."""

from __future__ import annotations

from repro.parameters import SkylakeParameters
from repro.sim.random import RandomStreams


def server_env_scale(streams: RandomStreams,
                     params: SkylakeParameters,
                     stream: str = "server-env") -> float:
    """Run-level environment factor for server-side service times.

    Real servers drift a little run to run (cache/TLB state, memory
    placement, thermal headroom); the paper's Section V-C variability
    analysis depends on this floor existing on the server too.

    Args:
        streams: the run's random streams.
        params: machine timing constants.
        stream: stream name -- cluster assembly draws one factor per
            server node (``node<i>/server-env``) so machines drift
            independently, exactly like a real fleet.
    """
    if params.env_sigma_server == 0:
        return 1.0
    rng = streams.get(stream)
    return float(rng.lognormal(0.0, params.env_sigma_server))
