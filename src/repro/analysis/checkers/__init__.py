"""Built-in checkers. Importing this package registers all of them."""

from .determinism import DeterminismChecker
from .hygiene import HygieneChecker
from .layering import LayeringChecker
from .metrics_contract import MetricContractChecker

__all__ = [
    "DeterminismChecker",
    "HygieneChecker",
    "LayeringChecker",
    "MetricContractChecker",
]
