"""Fixtures shared across test modules."""

from __future__ import annotations

import pytest

from repro.cep import TURN_ALPHABET
from repro.core import DatacronSystem, SystemConfig
from repro.datasources import AISConfig, AISSimulator

#: Each composition of the real-time layer, as ``SystemConfig`` fields.
COMPOSITIONS = {
    "plain": {},
    "n_shards=2": {"n_shards": 2},
    "pooled": {"n_shards": 2, "worker_pool": True},
}

def _run_live_system(fields: dict) -> DatacronSystem:
    config = SystemConfig(n_regions=10, n_ports=5, seed=3, **fields)
    sim = AISSimulator(n_vessels=3, seed=4, config=AISConfig(report_period_s=60.0))
    fixes = list(sim.fixes(0.0, 1800.0))
    with DatacronSystem(
        config, t_extent_s=3600.0, cep_training_symbols=list(TURN_ALPHABET) * 5
    ) as system:
        half = len(fixes) // 2
        system.run(fixes[:half])
        system.run(fixes[half:])
    system.batch.nodes_in_range(config.bbox, 0.0, 1800.0)
    return system


@pytest.fixture(scope="session")
def _live_systems() -> dict[str, DatacronSystem]:
    return {}


@pytest.fixture(params=list(COMPOSITIONS))
def live_system(request, _live_systems) -> DatacronSystem:
    """A system after two chunked runs (each ingesting into the batch
    layer) and a query, with CEP
    trained — one per composition, built once and closed before use, so
    no shard worker outlives the build."""
    if request.param not in _live_systems:
        _live_systems[request.param] = _run_live_system(COMPOSITIONS[request.param])
    return _live_systems[request.param]
