"""End-to-end synopses evaluation: compression vs. fidelity vs. throughput.

Drives the whole E2 experiment (Section 4.2.2's in-text numbers): runs the
generator over a stream, groups critical points per entity, reconstructs,
and reports compression ratio, reconstruction error and records/second —
the three quantities the paper discusses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable

from ..geo import PositionFix, group_fixes_by_entity

from .config import SynopsesConfig
from .detector import CriticalPoint, SynopsesGenerator
from .reconstruct import ReconstructionError, reconstruction_error, synopsis_trajectory


@dataclass(frozen=True, slots=True)
class SynopsesRunResult:
    """Everything measured from one synopses run."""

    points_in: int
    points_out: int
    noise_dropped: int
    compression_ratio: float
    throughput_records_s: float
    per_entity_errors: dict[str, ReconstructionError]

    @property
    def mean_rmse_m(self) -> float:
        errs = [e.rmse_m for e in self.per_entity_errors.values()]
        return sum(errs) / len(errs) if errs else 0.0


def run_synopses(
    fixes: Iterable[PositionFix],
    config: SynopsesConfig | None = None,
) -> SynopsesRunResult:
    """Run the generator over a finite stream and measure everything.

    The input is materialized (it is traversed twice to evaluate the
    reconstruction error), so pass bounded streams.
    """
    fix_list = list(fixes)
    generator = SynopsesGenerator(config)
    start = time.perf_counter()
    critical: list[CriticalPoint] = []
    for fix in fix_list:
        critical.extend(generator.process(fix))
    critical.extend(generator.flush())
    elapsed = time.perf_counter() - start

    per_entity: dict[str, ReconstructionError] = {}
    by_entity: dict[str, list[CriticalPoint]] = {}
    for cp in critical:
        by_entity.setdefault(cp.entity_id, []).append(cp)
    for eid, original in group_fixes_by_entity(fix_list).items():
        cps = by_entity.get(eid)
        if not cps or len(original) == 0:
            continue
        per_entity[eid] = reconstruction_error(original, synopsis_trajectory(cps, eid))

    throughput = len(fix_list) / elapsed if elapsed > 0 else 0.0
    return SynopsesRunResult(
        points_in=generator.points_in,
        points_out=generator.points_out,
        noise_dropped=generator.noise_dropped,
        compression_ratio=generator.compression_ratio(),
        throughput_records_s=throughput,
        per_entity_errors=per_entity,
    )
