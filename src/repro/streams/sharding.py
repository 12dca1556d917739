"""Key sharding: which shard a key lives on, and the canonical shard merge.

A sharded stream partitions its records *by key* across ``n_shards``
replicas with partition-local state, and merges what they emit back into
one deterministic stream. The two functions here are the whole contract:

* **routing** — :func:`shard_index` assigns a key to
  ``fnv1a(key) % n_shards``, the same deterministic hash topics use for
  partitions. All records of one key land on one shard, so every keyed
  stage sees exactly the per-key subsequence it would see unsharded.
* **merge** — :func:`merge_shard_outputs` orders the shards' outputs by
  ``(t, key)`` with each shard's per-key order preserved (stable sort),
  so the merged stream is identical for ``n_shards=1`` and
  ``n_shards=N``: the single-shard run is the equivalence oracle. The
  clock order is :func:`~repro.streams.record.clock_key`, total on any
  clock.

Where the replicas live and how a request reaches them is
``repro.streams.workers`` (the hosts and the one scatter/gather); what a
replica *is* belongs to the one executor that runs on them, the sharded
Figure-2 layer (``repro.core.sharded``).
"""

from __future__ import annotations

from typing import Sequence

from .broker import _stable_hash
from .record import Record, clock_key


def shard_index(key: str, n_shards: int) -> int:
    """Deterministic shard assignment of a key (FNV-1a, like partitions)."""
    return _stable_hash(key) % n_shards


def merge_shard_outputs(per_shard: Sequence[list[Record]]) -> list[Record]:
    """Merge per-shard output lists into one ``(t, key)``-ordered stream,
    ``NaN`` clocks last.

    The sort is stable, and all records of one key come from one shard in
    that shard's emission order — so per-key subsequences are preserved
    exactly, and same-``(t, key)`` runs keep their shard-local order.
    """
    merged = [record for outputs in per_shard for record in outputs]
    merged.sort(key=lambda record: clock_key(record.t, record.key or ""))
    return merged
