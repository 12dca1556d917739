"""Stream substrate (S2): the Kafka surrogate plus the shard process hosts.

Deterministic and in-process: keyed records with event time, a
partitioned broker with consumer groups, the key-to-shard routing and
the shard merge, and the worker hosts a sharded run scatters over. The
Flink role — the processing itself — is played by the Figure-2 stage
loop in :mod:`repro.core.realtime`.
"""

from .broker import Broker, Consumer, Topic
from .record import Record, StreamStats, merge_by_time
from .sharding import merge_shard_outputs, shard_index
from .workers import (
    ShardWorkerDied,
    ShardWorkerError,
    WorkerHost,
    scatter_gather,
    shard_hosts,
)

__all__ = [
    "Broker",
    "Consumer",
    "Record",
    "ShardWorkerDied",
    "ShardWorkerError",
    "StreamStats",
    "Topic",
    "WorkerHost",
    "merge_by_time",
    "merge_shard_outputs",
    "scatter_gather",
    "shard_hosts",
    "shard_index",
]
