"""Configuration of the integrated datAcron system (Figure 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datasources.regions import DEFAULT_BBOX
from ..geo import BBox
from ..insitu.quality import QualityConfig
from ..synopses import SynopsesConfig

#: Topic names of the Kafka-surrogate wiring.
TOPIC_RAW = "surveillance.raw"
TOPIC_CLEAN = "surveillance.clean"
TOPIC_SYNOPSES = "trajectories.synopses"
TOPIC_LINKS = "enrichment.links"
TOPIC_EVENTS = "events.detected"
#: Every topic of the Figure-2 wiring, in dataflow order.
ALL_TOPICS = (TOPIC_RAW, TOPIC_CLEAN, TOPIC_SYNOPSES, TOPIC_LINKS, TOPIC_EVENTS)


@dataclass
class SystemConfig:
    """Everything the integrated system needs to wire itself up."""

    bbox: BBox = field(default_factory=lambda: DEFAULT_BBOX)
    quality: QualityConfig = field(default_factory=QualityConfig)
    synopses: SynopsesConfig = field(default_factory=SynopsesConfig)
    n_regions: int = 200
    n_ports: int = 60
    near_port_threshold_m: float = 10_000.0
    proximity_space_m: float = 5_000.0
    proximity_time_s: float = 300.0
    grid_cell_deg: float = 0.5
    seed: int = 7
    #: Shards of the sharded real-time layer (repro.core.sharded): >= 2
    #: partitions the fix stream by entity across independent replicas
    #: with partition-local state; 1 keeps the single-shard path — the
    #: determinism/equivalence oracle. Must be >= 1.
    n_shards: int = 1
    #: Host shard replicas in long-lived worker processes
    #: (repro.streams.workers) instead of in-process: replicas are built
    #: once and served batched run requests over IPC, amortizing
    #: startup across runs. False keeps the in-process replicas — the
    #: determinism/equivalence oracle for the pool path.
    worker_pool: bool = False
    #: Ring size of the structured event log (oldest events overwritten).
    event_log_capacity: int = 1024
