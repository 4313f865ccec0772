"""Incremental segment replication for :class:`~repro.archive.store.SiteArchive`.

Read replicas scale the historical query path horizontally: a replica
holds a byte-identical copy of a primary's archive and answers
``history-request`` envelopes in its place. Because sealed segments are
immutable and only ever *appended* (``seal``), a replica can catch up
incrementally — it sends a :class:`ReplicationCursor` describing how
much of the primary it already holds (sealed segments *and* pending
rows, per log), and the primary answers with a **delta**. Per log:

* if no segment was sealed since the cursor, the delta ships only the
  pending rows past the cursor's count — ``log.pending[held:]``,
  preceded by ``held`` — and the replica *extends* its pending list;
* if one was, it ships the new segments verbatim plus the whole
  post-seal pending list (the same encoding with ``held = 0``), and the
  replica replaces its pending list.

Either way a boundary's delta carries what changed, not the up to
``seal_every`` rows the replica already holds. The rest of the mutable
tail — open intervals (O(live tags) per fetch), new intern-table
entries and alert cursors — still ships whole. Applying a delta leaves
the replica's archive bit-identical to the primary at the moment the
delta was cut::

    encode_archive(replica) == encode_archive(primary)

``compact`` rewrites the sealed layout, so cursors carry the archive's
``generation``; a generation mismatch (compaction, or a primary that
restarted from a checkpoint) makes the primary fall back to a **full
resync** delta that rebuilds the replica from scratch. So does a cursor
claiming more sealed segments or intern entries than the primary holds,
or — at the same segment count — more pending rows (a primary restored
from an earlier checkpoint). Either way the replica converges in one
round trip. A delta applies only to the exact cursor it was cut for, so
a duplicated or re-ordered suffix is rejected, never applied twice.

Deltas ride the same envelope plane as queries (see
:data:`~repro.runtime.envelope.REPLICA_FETCH` /
:data:`~repro.runtime.envelope.REPLICA_SEGMENTS`) and reuse the archive
codec's raw little-endian column blocks. Malformed input raises
:class:`ValueError`, never a bare decoder error.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro._util.encoding import ByteReader, ByteWriter
from repro.archive.codec import _read_f64, _read_i64, _write_f64, _write_i64
from repro.archive.store import SiteArchive, _AlertLog, _EventLog, _IntervalLog
from repro.sim.tags import read_epc, write_epc

__all__ = [
    "REPLICATION_VERSION",
    "ReplicationCursor",
    "ZERO_CURSOR",
    "cursor_of",
    "encode_replica_fetch",
    "decode_replica_fetch",
    "encode_archive_delta",
    "apply_archive_delta",
]

REPLICATION_VERSION = 2

#: attribute names of the five logs, in wire order.
_LOGS = ("location", "containment", "belief", "events", "alerts")


class ReplicationCursor(NamedTuple):
    """How much of a primary archive a replica already holds.

    ``segments`` counts sealed segments per log (wire order: location,
    containment, belief, events, alerts) and ``pending`` the pending
    rows held past them; ``tags``/``keys`` are intern table lengths. The
    cursor is only meaningful within one ``generation`` — compaction
    invalidates it.
    """

    generation: int
    segments: tuple[int, int, int, int, int]
    pending: tuple[int, int, int, int, int]
    tags: int
    keys: int
    last_boundary: int


ZERO_CURSOR = ReplicationCursor(0, (0, 0, 0, 0, 0), (0, 0, 0, 0, 0), 0, 0, 0)

#: pending-row counts are fixed-width on the wire, so a delta's size does
#: not depend on how long a tail the replica already holds.
_COUNT = struct.Struct("<I")
_COUNTS = struct.Struct(f"<{len(_LOGS)}I")


def cursor_of(archive: SiteArchive) -> ReplicationCursor:
    """The cursor describing everything ``archive`` holds."""
    logs = [getattr(archive, name) for name in _LOGS]
    return ReplicationCursor(
        archive.generation,
        tuple(len(log.segments) for log in logs),
        tuple(len(log.pending) for log in logs),
        len(archive.tag_table),
        len(archive.key_table),
        archive.last_boundary,
    )


def _write_cursor(writer: ByteWriter, cursor: ReplicationCursor) -> None:
    writer.varint(cursor.generation)
    for count in cursor.segments:
        writer.varint(count)
    writer.raw(_COUNTS.pack(*cursor.pending))
    writer.varint(cursor.tags).varint(cursor.keys).varint(cursor.last_boundary)


def _read_cursor(reader: ByteReader) -> ReplicationCursor:
    generation = reader.varint()
    segments = tuple(reader.varint() for _ in range(len(_LOGS)))
    pending = _COUNTS.unpack(reader.raw(_COUNTS.size))
    return ReplicationCursor(
        generation, segments, pending, reader.varint(), reader.varint(), reader.varint()
    )


# -- fetch requests ---------------------------------------------------------


def encode_replica_fetch(fetch_id: int, cursor: ReplicationCursor) -> bytes:
    """A replica's catch-up request: its id for this round + its cursor."""
    writer = ByteWriter()
    writer.varint(REPLICATION_VERSION).varint(fetch_id)
    _write_cursor(writer, cursor)
    return writer.getvalue()


def decode_replica_fetch(data: bytes) -> tuple[int, ReplicationCursor]:
    """Inverse of :func:`encode_replica_fetch`; ValueError on malformed input."""
    try:
        reader = ByteReader(data)
        version = reader.varint()
        if version != REPLICATION_VERSION:
            raise ValueError(f"unsupported replication version {version}")
        fetch_id = reader.varint()
        return fetch_id, _read_cursor(reader)
    except ValueError:
        raise
    except (EOFError, struct.error, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed replica fetch: {exc}") from exc


# -- per-log delta pieces ---------------------------------------------------
#
# Sealed segments past the cursor are shipped verbatim (same column
# layout as the checkpoint codec). Pending rows ship as a suffix:
# ``held`` is how many of the log's pending rows the replica already
# holds — the cursor's count while no segment was sealed past it, 0 once
# one was (the seal absorbed those rows into the new segment, so the
# post-seal pending ships whole). The replica checks ``held`` against
# its own pending list, drops what a seal absorbed and extends the rest.
# Open intervals are not a suffix (any live tag's state can change), so
# they still ship whole: O(live tags) per fetch.


def _write_pending_head(writer: ByteWriter, pending: list, held: int) -> list:
    """Write ``held`` and the suffix length; returns the suffix rows."""
    rows = pending[held:]
    writer.raw(_COUNT.pack(held))
    writer.varint(len(rows))
    return rows


def _read_pending_head(reader: ByteReader, pending: list, sealed: bool) -> int:
    """Validate ``held``, trim ``pending`` to it; returns the suffix length."""
    (held,) = _COUNT.unpack(reader.raw(_COUNT.size))
    if held != (0 if sealed else len(pending)):
        raise ValueError("delta pending base does not match replica state")
    del pending[held:]
    return reader.varint()


def _write_interval_delta(
    writer: ByteWriter, log: _IntervalLog, base: int, held: int
) -> None:
    new = log.segments[base:]
    writer.varint(len(new))
    for segment in new:
        writer.varint(len(segment[0]))
        for column in segment[:5]:
            _write_i64(writer, column)
        _write_f64(writer, segment[5])
    for tag, rank, start, end, value, posterior in _write_pending_head(
        writer, log.pending, held
    ):
        writer.varint(tag).varint(rank).varint(start).varint(end).svarint(value)
        writer.float64(posterior)
    writer.varint(len(log.open))
    for tag in sorted(log.open):
        start, rows = log.open[tag]
        writer.varint(tag).varint(start).varint(len(rows))
        for value, posterior in rows:
            writer.svarint(value).float64(posterior)


def _apply_interval_delta(reader: ByteReader, log: _IntervalLog) -> None:
    sealed = reader.varint()
    for _ in range(sealed):
        count = reader.varint()
        ints = tuple(_read_i64(reader, count) for _ in range(5))
        log.segments.append(ints + (_read_f64(reader, count),))
    for _ in range(_read_pending_head(reader, log.pending, sealed > 0)):
        log.pending.append(
            (
                reader.varint(),
                reader.varint(),
                reader.varint(),
                reader.varint(),
                reader.svarint(),
                reader.float64(),
            )
        )
    log.open = {}
    for _ in range(reader.varint()):
        tag = reader.varint()
        start = reader.varint()
        rows = tuple(
            (reader.svarint(), reader.float64()) for _ in range(reader.varint())
        )
        log.open[tag] = (start, rows)


def _write_event_delta(
    writer: ByteWriter, log: _EventLog, base: int, held: int
) -> None:
    new = log.segments[base:]
    writer.varint(len(new))
    for segment in new:
        writer.varint(len(segment[0]))
        for column in segment:
            _write_i64(writer, column)
    for time, tag, place, container in _write_pending_head(writer, log.pending, held):
        writer.varint(time).varint(tag).svarint(place).svarint(container)


def _apply_event_delta(
    reader: ByteReader, log: _EventLog, last_event: dict[int, int]
) -> None:
    sealed = reader.varint()
    for _ in range(sealed):
        count = reader.varint()
        segment = tuple(_read_i64(reader, count) for _ in range(4))
        log.segments.append(segment)
        times, tags = segment[0], segment[1]
        for i in range(count):
            time, tag = int(times[i]), int(tags[i])
            if time > last_event.get(tag, -1):
                last_event[tag] = time
    for _ in range(_read_pending_head(reader, log.pending, sealed > 0)):
        row = (reader.varint(), reader.varint(), reader.svarint(), reader.svarint())
        log.pending.append(row)
        if row[0] > last_event.get(row[1], -1):
            last_event[row[1]] = row[0]


def _write_alert_delta(
    writer: ByteWriter, log: _AlertLog, base: int, held: int
) -> None:
    new = log.segments[base:]
    writer.varint(len(new))
    for names, keys, starts, ends, offsets, flat in new:
        writer.varint(len(names))
        for column in (names, keys, starts, ends):
            _write_i64(writer, column)
        _write_i64(writer, offsets)  # len(names) + 1 entries
        writer.varint(len(flat))
        _write_f64(writer, flat)
    for name, key, start, end, values in _write_pending_head(
        writer, log.pending, held
    ):
        writer.varint(name).varint(key).varint(start).varint(end)
        writer.varint(len(values))
        for value in values:
            writer.float64(value)


def _apply_alert_delta(reader: ByteReader, log: _AlertLog) -> None:
    sealed = reader.varint()
    for _ in range(sealed):
        count = reader.varint()
        ints = tuple(_read_i64(reader, count) for _ in range(4))
        offsets = _read_i64(reader, count + 1)
        flat = _read_f64(reader, reader.varint())
        if len(offsets) and (offsets[-1] != len(flat) or offsets[0] != 0):
            raise ValueError("alert segment offsets do not cover the value block")
        log.segments.append(ints + (offsets, flat))
    for _ in range(_read_pending_head(reader, log.pending, sealed > 0)):
        name = reader.varint()
        key = reader.varint()
        start = reader.varint()
        end = reader.varint()
        values = tuple(reader.float64() for _ in range(reader.varint()))
        log.pending.append((name, key, start, end, values))


# -- the delta --------------------------------------------------------------


def encode_archive_delta(
    archive: SiteArchive, cursor: ReplicationCursor, fetch_id: int = 0
) -> bytes:
    """Everything a replica at ``cursor`` is missing from ``archive``.

    If the cursor's generation does not match (compaction or primary
    restart) — or claims more sealed state than the archive holds, or
    more pending rows in a log with no segment sealed since — the delta
    is cut against :data:`ZERO_CURSOR` instead and flagged as a full
    resync.
    """
    base = cursor
    logs = [getattr(archive, name) for name in _LOGS]
    counts = [len(log.segments) for log in logs]
    stale = (
        base.generation != archive.generation
        # Per log, lexicographic: fewer segments than claimed, or as
        # many but fewer pending rows.
        or any(
            (have, len(log.pending)) < (claimed, held)
            for log, have, claimed, held in zip(
                logs, counts, base.segments, base.pending
            )
        )
        or base.tags > len(archive.tag_table)
        or base.keys > len(archive.key_table)
        or base.last_boundary > archive.last_boundary
    )
    if stale:
        base = ZERO_CURSOR
    held = [
        rows if have == claimed else 0
        for have, claimed, rows in zip(counts, base.segments, base.pending)
    ]
    writer = ByteWriter()
    writer.varint(REPLICATION_VERSION).varint(fetch_id)
    writer.svarint(archive.site)
    writer.varint(archive.seal_every).varint(archive.top_k)
    writer.varint(archive.generation)
    writer.varint(1 if stale else 0)
    _write_cursor(writer, base)
    writer.varint(archive.last_boundary)
    writer.varint(len(archive.tag_table) - base.tags)
    for tag in archive.tag_table[base.tags :]:
        write_epc(writer, tag)
    writer.varint(len(archive.key_table) - base.keys)
    for key in archive.key_table[base.keys :]:
        writer.text(key)
    segments = base.segments
    _write_interval_delta(writer, archive.location, segments[0], held[0])
    _write_interval_delta(writer, archive.containment, segments[1], held[1])
    _write_interval_delta(writer, archive.belief, segments[2], held[2])
    _write_event_delta(writer, archive.events, segments[3], held[3])
    _write_alert_delta(writer, archive.alerts, segments[4], held[4])
    writer.varint(len(archive.alert_cursors))
    for name in sorted(archive.alert_cursors):
        writer.text(name)
        writer.varint(archive.alert_cursors[name])
    return writer.getvalue()


def apply_archive_delta(
    archive: SiteArchive | None, data: bytes
) -> tuple[SiteArchive, int, bool]:
    """Apply a delta; returns ``(archive, fetch_id, full_resync)``.

    Incremental deltas mutate ``archive`` in place and require its
    :func:`cursor_of` to equal the delta's base (the cursor the replica
    sent) — anything else raises :class:`ValueError`. Full-resync
    deltas return a **new** archive built from scratch; callers must
    swap it in (and rebuild anything holding the old object).
    """
    try:
        return _apply(archive, ByteReader(data))
    except ValueError:
        raise
    except (EOFError, struct.error, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed archive delta: {exc}") from exc


def _apply(
    archive: SiteArchive | None, reader: ByteReader
) -> tuple[SiteArchive, int, bool]:
    version = reader.varint()
    if version != REPLICATION_VERSION:
        raise ValueError(f"unsupported replication version {version}")
    fetch_id = reader.varint()
    site = reader.svarint()
    seal_every = reader.varint()
    top_k = reader.varint()
    generation = reader.varint()
    full = bool(reader.varint())
    base = _read_cursor(reader)
    if full or (archive is None and base == ZERO_CURSOR):
        target = SiteArchive(site, seal_every=seal_every, top_k=top_k)
        full = True
    else:
        target = archive
        if target is None:
            raise ValueError("incremental delta but replica holds no archive")
        if target.site != site:
            raise ValueError(
                f"delta for site {site} applied to replica of site {target.site}"
            )
        if cursor_of(target) != base:
            raise ValueError("delta base does not match replica state")
        if base == ZERO_CURSOR:
            # Bootstrapping into a still-empty replica archive: nothing
            # is sealed yet, so adopt the primary's sealing parameters —
            # otherwise the copy's encoded header can never match a
            # primary built with non-default ones.
            target.seal_every = seal_every
            target.top_k = top_k
    target.last_boundary = reader.varint()
    before = len(target.tag_table)
    for _ in range(reader.varint()):
        target.intern_tag(read_epc(reader))
        before += 1
        if len(target.tag_table) != before:
            raise ValueError("duplicate tag in archive delta")
    before = len(target.key_table)
    for _ in range(reader.varint()):
        target.intern_key(reader.text())
        before += 1
        if len(target.key_table) != before:
            raise ValueError("duplicate key in archive delta")
    _apply_interval_delta(reader, target.location)
    _apply_interval_delta(reader, target.containment)
    _apply_interval_delta(reader, target.belief)
    _apply_event_delta(reader, target.events, target.last_event)
    _apply_alert_delta(reader, target.alerts)
    cursors: dict[str, int] = {}
    for _ in range(reader.varint()):
        name = reader.text()
        cursors[name] = reader.varint()
    target.alert_cursors = cursors
    target.generation = generation
    return target, fetch_id, full
