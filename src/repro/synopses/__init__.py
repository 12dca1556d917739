"""Synopses Generator (S5): streaming trajectory compression to critical points."""

from .config import AVIATION_CONFIG, MARITIME_CONFIG, SynopsesConfig
from .crossstream import CrossStreamFuser, FusionStats, SourceSpec, degrade_stream
from .detector import CRITICAL_TYPES, CriticalPoint, SynopsesGenerator
from .metrics import SynopsesRunResult, run_synopses
from .reconstruct import ReconstructionError, reconstruction_error, synopsis_trajectory

__all__ = [
    "AVIATION_CONFIG",
    "CRITICAL_TYPES",
    "CrossStreamFuser",
    "FusionStats",
    "CriticalPoint",
    "MARITIME_CONFIG",
    "ReconstructionError",
    "SynopsesConfig",
    "SynopsesGenerator",
    "SourceSpec",
    "SynopsesRunResult",
    "degrade_stream",
    "reconstruction_error",
    "run_synopses",
    "synopsis_trajectory",
]
