"""Wire format of the pooled Figure-2 shard frames.

One poll of a pooled :class:`~repro.core.sharded.ShardedRealtimeLayer`
is one request and one reply per shard worker. Both are built here,
serialised once to ``bytes`` (so the worker protocol of
``repro.streams.workers`` carries them as opaque payloads), and nothing
else in the repo knows their layout.

**Request — a struct-of-arrays fix batch** (:class:`FixBatch`). A poll's
fixes share a handful of entity ids, sources and annotation dicts and are
otherwise seven floats each, so they ship as columns instead of pickled
objects: the :class:`~repro.geo.FixColumns` of the poll — the layout the
layer's own column kernels read, bit-exact for ``NaN``, ``-0.0``,
``±inf``, ``None`` and the rare non-float value — plus ``source`` and
``annotations``, dictionary-encoded like ``entity_id``. Annotations are
encoded by value when every key and value in the batch is a ``str``,
``None`` and ``int`` *or* ``bool`` (types whose ``==`` never merges
values that pickle apart, as ``1 == True`` and ``0.0 == -0.0`` do), else
by dict object, so any dict round-trips. The worker rebuilds the fixes
in one ``map(PositionFix, ...)`` pass, each owning a copy of its
annotations, and its entity stages screen the columns as they came.

**Reply — what the replica computed** (:class:`ShardReply`). The raw
topic of a shard replica is ``Record(fix.t, fix, fix.entity_id, stamp)``
around each fix of the request, in request order and with one stamp per
poll, and its clean topic is the raw records of the rows cleaning kept
(``clean_batch``'s rows, increasing), so echoing them back would ship
every fix twice more. Instead the reply carries what the parent cannot
know:

* ``ingest_wall_s`` — the one stamp of the poll, which every derived
  record carries too (``None`` when it was empty, and derived nothing);
* ``clean_rows`` — the request row of each clean record, as the cleaning
  stage returned them;

and the parent rebuilds both topics around its *own* ``PositionFix``
objects, in the order the replica published them.

Synopses, links and events are *derived* records (about a tenth of the
volume): their values were built inside the worker — a ``gap_start``,
``stop_start``, ``slow_start`` or ``takeoff`` point may even wrap a fix
from an earlier request — so they travel by value,
through the positional ``__reduce__`` of ``Record`` / ``PositionFix`` /
``CriticalPoint`` / ``Link``, about twice as fast as the slots default.
So does the per-run delta harvest, the one copy of the shard's counts
and run wall that crosses the pipe: the parent folds it and reads every
report from its own registry.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from ..geo import FLOAT_FIELDS, FixColumns, PositionFix
from ..geo.columns import dictionary_encode
from ..obs import ObsHarvest
from ..streams import Record
from .config import TOPIC_CLEAN, TOPIC_RAW

#: Annotation types a batch is dictionary-encoded by value under.
_BY_VALUE = (frozenset({str, type(None), int}), frozenset({str, type(None), bool}))


@dataclass(frozen=True, slots=True)
class FixBatch:
    """Request frame: one shard's fixes of one poll, as columns."""

    columns: FixColumns
    sources: list[str]
    source_codes: np.ndarray            # int32[n] into sources
    annotations: list[dict]
    annotation_codes: np.ndarray        # int32[n] into annotations


@dataclass(frozen=True, slots=True)
class ShardReply:
    """Reply frame: what one shard replica produced for one request."""

    harvest: ObsHarvest                 # this run's delta
    ingest_wall_s: float | None         # the stamp of every raw record
    clean_rows: np.ndarray              # int32: request row per clean record, increasing
    by_value: dict[str, list[Record]]   # the derived topics


def encode_request(fixes: list[PositionFix]) -> bytes:
    """Pack one shard's fixes of one poll into a request frame."""
    annotations = [fix.annotations for fix in fixes]
    keys = list(map(tuple, map(dict.items, annotations)))
    # Every item's type, not only the distinct keys': deduping merges a
    # ``True`` into an earlier equal ``1``, and a check after it misses it.
    kinds = set(map(type, chain.from_iterable(chain.from_iterable(keys))))
    by_value = any(map(kinds.issubset, _BY_VALUE))
    if not by_value:
        keys = list(map(id, annotations))
    # One pass: each key's code is the number of distinct keys before it.
    code_of: dict = {}
    codes = np.fromiter(map(code_of.setdefault, keys, map(len, repeat(code_of))), np.int32, len(keys))
    distinct = list(map(dict, code_of)) if by_value else list(dict(zip(keys, annotations)).values())
    batch = FixBatch(
        FixColumns.of(fixes),
        *dictionary_encode([fix.source for fix in fixes]),
        distinct,
        codes,
    )
    return pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)


def decode_request(frame: bytes) -> tuple[list[PositionFix], FixColumns]:
    """The fixes a request frame carries, equal field for field to the
    sender's, and their columns, equal to ``FixColumns.of`` of them."""
    batch: FixBatch = pickle.loads(frame)
    columns = batch.columns
    fixes = list(
        map(
            PositionFix,
            columns.keys(),
            *map(columns.values, range(len(FLOAT_FIELDS))),
            map(batch.sources.__getitem__, batch.source_codes.tolist()),
            map(dict, map(batch.annotations.__getitem__, batch.annotation_codes.tolist())),
        )
    )
    return fixes, columns


def encode_reply(topics: dict[str, list[Record]], clean_rows: np.ndarray, harvest: ObsHarvest) -> bytes:
    """Pack what a replica's run published, per Figure-2 topic, with the
    request rows of its clean records."""
    by_value = dict(topics)
    raw = by_value.pop(TOPIC_RAW)
    del by_value[TOPIC_CLEAN]
    stamp = raw[0].ingest_wall_s if raw else None
    reply = ShardReply(harvest, stamp, clean_rows.astype(np.int32), by_value)
    return pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)


def decode_reply(
    frame: bytes, fixes: list[PositionFix]
) -> tuple[ShardReply, dict[str, list[Record]]]:
    """Unpack a reply against the ``fixes`` its request carried.

    Returns the frame and the shard's new records per topic, the raw and
    clean ones rebuilt around the caller's own fix objects.
    """
    reply: ShardReply = pickle.loads(frame)
    stamp = reply.ingest_wall_s
    # One record per request fix, in order; a clean record is the raw
    # record of its row.
    raw = [Record(fix.t, fix, fix.entity_id, stamp) for fix in fixes]
    topics = {
        TOPIC_RAW: raw,
        TOPIC_CLEAN: [raw[i] for i in reply.clean_rows.tolist()],
        **reply.by_value,
    }
    return reply, topics
