"""repro: a full reproduction of the datAcron time-critical mobility
forecasting stack (Vouros et al., EDBT 2018).

Subpackages mirror the paper's architecture (Figure 2):

- :mod:`repro.geo` -- geometry and spatio-temporal primitives,
- :mod:`repro.streams` -- the Kafka surrogate (broker, topics, consumer
  groups) and the shard process hosts,
- :mod:`repro.datasources` -- synthetic surrogates of the Table-1 feeds,
- :mod:`repro.insitu` -- in-situ statistics, low-level events, cleaning,
- :mod:`repro.synopses` -- the trajectory Synopses Generator,
- :mod:`repro.rdf` -- the datAcron ontology and RDF generation,
- :mod:`repro.linkdiscovery` -- spatio-temporal link discovery with cell masks,
- :mod:`repro.kgstore` -- the dictionary-encoded spatio-temporal triple store,
- :mod:`repro.prediction` -- RMF/RMF* and the hybrid clustering/HMM predictor,
- :mod:`repro.cep` -- complex event recognition & forecasting (Wayeb),
- :mod:`repro.va` -- visual-analytics computational backends,
- :mod:`repro.core` -- the integrated real-time + batch pipeline.
"""

from .core import DatacronSystem, SystemConfig

__version__ = "1.0.0"

__all__ = ["DatacronSystem", "SystemConfig", "__version__"]
