"""Wire format of the pooled Figure-2 shard frames.

One poll of a pooled :class:`~repro.core.sharded.ShardedRealtimeLayer`
is one request and one reply per shard worker. Both are built here,
serialised once to ``bytes`` (so the worker protocol of
``repro.streams.workers`` carries them as opaque payloads), and nothing
else in the repo knows their layout.

**Request — a struct-of-arrays fix batch** (:class:`FixBatch`). A poll's
fixes share a handful of entity ids and sources and are otherwise seven
floats each, so they ship as columns instead of pickled objects:

* ``entity_id`` and ``source`` dictionary-encoded (distinct values once,
  an ``int32`` code per fix);
* ``t/lon/lat/alt/speed/heading/vrate`` as one ``float64[7, n]`` block,
  which round-trips ``NaN``, ``-0.0`` and ``±inf`` bit-exactly;
* a ``bool[7, n]`` validity mask — ``False`` where the field is not a
  float. That is ``None`` (a missing kinematic field) unless the cell is
  listed in ``odd``, which carries the rare non-float value (an ``int``
  timestamp, say) by value so the worker sees exactly the parent's data;
* ``annotations`` only for the fixes where the dict is non-empty.

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
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Any

import numpy as np

from ..geo import PositionFix
from ..obs import ObsHarvest
from ..streams import Record
from .config import TOPIC_CLEAN, TOPIC_RAW
from .realtime import RealtimeReport

#: The float64 block's rows, in ``PositionFix`` field order.
_FLOAT_FIELDS = ("t", "lon", "lat", "alt", "speed", "heading", "vrate")


@dataclass(frozen=True, slots=True)
class FixBatch:
    """Request frame: one shard's fixes of one poll, as columns."""

    entity_ids: list[str]
    entity_codes: np.ndarray            # int32[n] into entity_ids
    sources: list[str]
    source_codes: np.ndarray            # int32[n] into sources
    columns: np.ndarray                 # float64[7, n], _FLOAT_FIELDS order
    valid: np.ndarray                   # bool[7, n]: the cell holds a float
    odd: list[tuple[int, int, Any]]     # (field, row, value): invalid and not None
    annotations: dict[int, dict]        # row -> non-empty annotations


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


def _dictionary_encode(values: list) -> tuple[list, np.ndarray]:
    distinct = list(dict.fromkeys(values))
    code_of = {value: code for code, value in enumerate(distinct)}
    return distinct, np.array(list(map(code_of.__getitem__, values)), dtype=np.int32)


def encode_request(fixes: list[PositionFix]) -> bytes:
    """Pack one shard's fixes of one poll into a request frame."""
    n = len(fixes)
    columns = np.zeros((len(_FLOAT_FIELDS), n))
    valid = np.ones((len(_FLOAT_FIELDS), n), dtype=bool)
    odd: list[tuple[int, int, Any]] = []
    for j, name in enumerate(_FLOAT_FIELDS):
        values = list(map(attrgetter(name), fixes))
        if set(map(type, values)) - {float}:
            for i, value in enumerate(values):
                if type(value) is not float:
                    valid[j, i] = False
                    values[i] = 0.0
                    if value is not None:
                        odd.append((j, i, value))
        columns[j] = values
    entity_ids, entity_codes = _dictionary_encode([fix.entity_id for fix in fixes])
    sources, source_codes = _dictionary_encode([fix.source for fix in fixes])
    batch = FixBatch(
        entity_ids, entity_codes, sources, source_codes, columns, valid, odd,
        annotations={i: fix.annotations for i, fix in enumerate(fixes) if fix.annotations},
    )
    return pickle.dumps(batch, pickle.HIGHEST_PROTOCOL)


def decode_request(frame: bytes) -> list[PositionFix]:
    """The fixes a request frame carries, equal field for field to the sender's."""
    batch: FixBatch = pickle.loads(frame)
    columns = [column.tolist() for column in batch.columns]
    for j, i in np.argwhere(~batch.valid).tolist():
        columns[j][i] = None
    for j, i, value in batch.odd:
        columns[j][i] = value
    entity_ids, sources = batch.entity_ids, batch.sources
    fixes = list(
        map(
            PositionFix,
            [entity_ids[code] for code in batch.entity_codes.tolist()],
            *columns,
            [sources[code] for code in batch.source_codes.tolist()],
        )
    )
    for i, annotations in batch.annotations.items():
        fixes[i] = replace(fixes[i], annotations=annotations)
    return fixes


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

    def by_reference(rows: np.ndarray) -> list[Record]:
        records = []
        for i in rows.tolist():
            fix = fixes[i]
            records.append(Record(fix.t, fix, fix.entity_id, stamps[i]))
        return records

    topics = {
        TOPIC_RAW: by_reference(reply.raw_rows),
        TOPIC_CLEAN: by_reference(reply.clean_rows),
        **reply.by_value,
    }
    return reply, topics
