"""Stream-processing substrate (S2): the Flink/Kafka surrogate.

Deterministic, single-process dataflow: records with event time,
watermark-driven windows, keyed stateful operators, and an in-process
partitioned broker with consumer groups.
"""

from .broker import Broker, Consumer, Topic, TopicMessage
from .join import Enriched, TemporalLookupJoin
from .operators import Filter, FlatMap, KeyBy, KeyedProcess, LatencyProbe, Map, Operator, Peek, Union
from .pipeline import Pipeline, WatermarkAssigner, drain_consumer, merge_by_time, publish_all, records_from_values
from .record import Record, StreamElement, StreamStats, Watermark
from .sharding import merge_shard_outputs, shard_index
from .windows import SlidingWindow, TumblingWindow, WindowResult, count_aggregate, mean_aggregate
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
    "Enriched",
    "Filter",
    "FlatMap",
    "KeyBy",
    "KeyedProcess",
    "LatencyProbe",
    "Map",
    "Operator",
    "Peek",
    "Pipeline",
    "Record",
    "ShardWorkerDied",
    "ShardWorkerError",
    "SlidingWindow",
    "WorkerHost",
    "StreamElement",
    "StreamStats",
    "TemporalLookupJoin",
    "Topic",
    "TopicMessage",
    "TumblingWindow",
    "Union",
    "Watermark",
    "WatermarkAssigner",
    "WindowResult",
    "count_aggregate",
    "drain_consumer",
    "mean_aggregate",
    "merge_by_time",
    "merge_shard_outputs",
    "publish_all",
    "records_from_values",
    "scatter_gather",
    "shard_hosts",
    "shard_index",
]
