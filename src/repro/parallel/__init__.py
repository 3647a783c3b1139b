"""Multi-core scale-out: repetitions and shards across processes.

Every plan runs through :func:`run_sharded`, which places its
repetitions (one task each) over a process pool by a default rule.
``RunPolicy(workers=W)`` (or ``PlanBuilder.policy(workers=W)``, or
``repro run --workers W``) decomposes each repetition into W striped
shards -- full service replicas at ``qps / W`` -- runs them across
worker processes, and merges their telemetry through the
mergeable-sink protocol: exact concatenation for the default columnar
sink, Chan moment combine + P\N{SUPERSCRIPT TWO} mixture replay for
the streaming sink.

See :mod:`repro.parallel.shard` for the decomposition semantics,
:mod:`repro.parallel.runner` for the placement-independence
(bit-identity) contract, and :mod:`repro.parallel.merge` for the
merge rules.
"""

from repro.parallel.merge import (
    MergedStreamingSamples,
    merge_columnar_payloads,
    merged_run_metrics,
)
from repro.parallel.runner import run_shard, run_sharded, usable_cores
from repro.parallel.shard import ShardSpec, shard_layout

__all__ = [
    "MergedStreamingSamples",
    "ShardSpec",
    "merge_columnar_payloads",
    "merged_run_metrics",
    "run_shard",
    "run_sharded",
    "shard_layout",
    "usable_cores",
]
