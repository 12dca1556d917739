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

**Reply — by reference** (:class:`ShardReply`). The raw and clean topics
of a shard replica hold ``Record(fix.t, fix, fix.entity_id, stamp)``
around the very fixes of the request (``clean_stream`` is a drop-or-yield
filter over the same objects), so echoing them back would ship every fix
twice more. Instead the reply names them:

* ``stamps`` — ``float64[n]``, the ``ingest_wall_s`` the worker stamped
  on request fix ``i``;
* ``raw_rows`` / ``clean_rows`` — the request row of each raw / clean
  topic record, in the order the worker drained them;

and the parent rebuilds those records around its *own* ``PositionFix``
objects. The worker checks the assumptions on every request instead of
trusting them: the raw topic must hold exactly one record per request
fix, every clean record must wrap a request fix and carry that fix's raw
stamp — anything else raises, which the worker protocol reports as a
``ShardWorkerError``.

Synopses, links and events are *derived* records (about a tenth of the
volume): their values were built inside the worker — a critical point
may even wrap a fix from an earlier request — so they travel by value,
through the positional ``__reduce__`` of ``Record`` / ``PositionFix`` /
``CriticalPoint`` / ``Link``. So do the shard's cumulative report, its
run wall and the per-run delta harvest.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ..geo import FLOAT_FIELDS, FixColumns, PositionFix
from ..geo.columns import dictionary_encode
from ..obs import ObsHarvest
from ..streams import Record
from .config import TOPIC_CLEAN, TOPIC_RAW
from .realtime import RealtimeReport

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

    report: RealtimeReport              # cumulative
    wall_s: float                       # cumulative
    harvest: ObsHarvest                 # this run's delta
    stamps: np.ndarray                  # float64[n]: ingest_wall_s per request fix
    raw_rows: np.ndarray                # int32: request row per raw record, drained order
    clean_rows: np.ndarray              # int32: request row per clean record, drained order
    by_value: dict[str, list[Record]]   # the derived topics


def encode_request(fixes: list[PositionFix]) -> bytes:
    """Pack one shard's fixes of one poll into a request frame."""
    annotations = [fix.annotations for fix in fixes]
    keys = list(map(tuple, map(dict.items, annotations)))
    kinds = set(map(type, chain.from_iterable(chain.from_iterable(keys))))
    if not any(map(kinds.issubset, _BY_VALUE)):
        keys = list(map(id, annotations))
    batch = FixBatch(
        FixColumns.of(fixes),
        *dictionary_encode([fix.source for fix in fixes]),
        list(dict(zip(keys, annotations)).values()),
        dictionary_encode(keys)[1],
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


def encode_reply(
    fixes: list[PositionFix],
    report: RealtimeReport,
    topics: dict[str, list[Record]],
    wall_s: float,
    harvest: ObsHarvest,
) -> bytes:
    """Pack a replica's output for the request that carried ``fixes``.

    ``topics`` maps every Figure-2 topic to the records the run added.
    Raises :class:`ValueError` when the raw or clean topic cannot be
    expressed by reference to ``fixes`` (see the module docstring).
    """
    n = len(fixes)
    row_of = {id(fix): i for i, fix in enumerate(fixes)}

    def request_rows(records: list[Record]) -> np.ndarray:
        return np.array([row_of.get(id(rec.value), -1) for rec in records], dtype=np.int32)

    by_value = dict(topics)
    raw, clean = by_value.pop(TOPIC_RAW), by_value.pop(TOPIC_CLEAN)
    raw_rows = request_rows(raw)
    if not np.array_equal(np.sort(raw_rows), np.arange(n)):
        raise ValueError(
            f"raw topic yielded {len(raw)} records for a {n}-fix request; "
            "reply-by-reference needs exactly one per request fix"
        )
    stamps = np.empty(n)
    stamps[raw_rows] = [rec.ingest_wall_s for rec in raw]
    clean_rows = request_rows(clean)
    clean_stamps = np.array([rec.ingest_wall_s for rec in clean], dtype=np.float64)
    if (clean_rows < 0).any() or not np.array_equal(stamps[clean_rows], clean_stamps):
        raise ValueError(
            "clean topic is not a filter of this request's raw topic "
            "(foreign fix or ingest stamp); it cannot be replied by reference"
        )
    reply = ShardReply(report, wall_s, harvest, stamps, raw_rows, clean_rows, by_value)
    return pickle.dumps(reply, pickle.HIGHEST_PROTOCOL)


def decode_reply(
    frame: bytes, fixes: list[PositionFix]
) -> tuple[ShardReply, dict[str, list[Record]]]:
    """Unpack a reply against the ``fixes`` its request carried.

    Returns the frame and the shard's new records per topic, the raw and
    clean ones rebuilt around the caller's own fix objects.
    """
    reply: ShardReply = pickle.loads(frame)
    stamps = reply.stamps.tolist()

    # One record per request row; a clean record is the raw record of its row.
    raw = {i: Record(fixes[i].t, fixes[i], fixes[i].entity_id, stamps[i]) for i in reply.raw_rows.tolist()}
    topics = {
        TOPIC_RAW: list(raw.values()),
        TOPIC_CLEAN: [raw[i] for i in reply.clean_rows.tolist()],
        **reply.by_value,
    }
    return reply, topics
