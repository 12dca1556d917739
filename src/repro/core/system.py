"""The integrated datAcron system (Figure 2): a real-time layer — both
halves of the figure in one loop, or entity-sharded replicas under one
merged global half — plus the batch layer on its broker."""

from __future__ import annotations

from dataclasses import dataclass

from .batch import BatchLayer, BatchReport
from .config import SystemConfig
from .realtime import RealtimeLayer, RealtimeReport
from .sharded import ShardedRealtimeLayer


@dataclass
class SystemRun:
    """The combined outcome of one end-to-end run."""

    realtime: RealtimeReport
    batch: BatchReport


class DatacronSystem:
    """End-to-end orchestration: feed surveillance in, get analytics out.

    ``config.n_shards > 1`` or ``config.worker_pool`` deploys the
    real-time layer entity-sharded (:class:`ShardedRealtimeLayer`; the
    batch layer reads its merged broker unchanged); otherwise it is the
    plain :class:`RealtimeLayer`. Use as a context manager (or call
    :meth:`close`) so pooled shard workers never outlive the system.
    """

    def __init__(
        self,
        config: SystemConfig | None = None,
        t_origin: float = 0.0,
        t_extent_s: float = 24 * 3600.0,
        cep_training_symbols: list[str] | None = None,
    ):
        self.config = config or SystemConfig()
        sharded = self.config.n_shards > 1 or self.config.worker_pool
        layer = ShardedRealtimeLayer if sharded else RealtimeLayer
        self.realtime = layer(self.config, cep_training_symbols=cep_training_symbols)
        try:
            self.batch = BatchLayer(
                self.config, self.realtime.broker, t_origin, t_extent_s, registry=self.realtime.metrics
            )
        # Not a handler: whatever stops the batch layer from being built,
        # the real-time layer's shard workers are closed, then it re-raises.
        except BaseException:
            self.realtime.close()
            raise

    def close(self) -> None:
        """Shut pooled shard workers down (nothing to do otherwise)."""
        self.realtime.close()

    def __enter__(self) -> "DatacronSystem":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, fixes) -> SystemRun:
        """Process a bounded surveillance stream through both layers."""
        realtime_report = self.realtime.run(fixes)
        batch_report = self.batch.ingest_from_broker()
        return SystemRun(realtime=realtime_report, batch=batch_report)

    @property
    def metrics(self):
        """The system-wide metrics registry (lives on the real-time layer)."""
        return self.realtime.metrics

    def system_metrics(self) -> dict:
        """Registry snapshot plus derived operator rates and consumer lags."""
        return self.realtime.system_metrics()

    def dashboard_frame(self, t: float | None = None) -> str:
        """The current Figure-13 dashboard frame."""
        return self.realtime.dashboard.render_frame(t)
