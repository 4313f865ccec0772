"""Tiered storage for sealed archive segments (RAM-hot → disk-cold).

A week-long archive should not live entirely in RAM. The storage
ladder is:

* **pending rows** — tiny Python lists, always in memory (the hot
  write path);
* **hot sealed segments** — the newest few immutable numpy segments of
  each log, kept in memory because recent history is queried most;
* **cold sealed segments** — everything older, spilled to one columnar
  file per segment on a :class:`DiskTier` and loaded lazily through a
  small LRU-resident cache when a query actually touches them.

:class:`TieredSegments` is a drop-in, list-shaped replacement for a
log's ``segments`` list: ``append``/``len``/iteration/slicing behave
identically (materializing cold segments on touch), so the query path,
the checkpoint codec, and segment replication all work unchanged over
a tiered archive. ``copy()`` shares handles — snapshots stay cheap —
and ``fresh()`` survives compaction (see ``_fresh_segments`` in the
store).

Spilled files are raw little-endian column blocks (the same layout the
archive codec uses), so a spill→load round trip is bit-exact and
``encode_archive`` over a tiered archive equals the in-RAM encoding.
"""

from __future__ import annotations

import os
import struct
import zlib
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Iterator, NamedTuple

import numpy as np

from repro._util.encoding import ByteReader, ByteWriter

__all__ = [
    "ArchiveCorruption",
    "DiskTier",
    "SegmentHandle",
    "TieredSegments",
    "TierStats",
]

#: little-endian crc32 footer appended to every spilled column file, so
#: a truncated or bit-flipped file fails validation with a description
#: instead of a raw numpy/struct exception deep in the decoder.
_CRC = struct.Struct("<I")


class ArchiveCorruption(ValueError):
    """A spilled tier segment failed its length or checksum validation."""


class SegmentHandle(NamedTuple):
    """A spilled segment: where it lives and how many rows it holds."""

    path: str
    rows: int


@dataclass
class TierStats:
    """Spill/load accounting for one :class:`DiskTier`."""

    spills: int = 0
    loads: int = 0
    cache_hits: int = 0
    evictions: int = 0
    bytes_spilled: int = 0
    corruptions: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class DiskTier:
    """On-disk segment store with an LRU cache of resident segments.

    ``max_resident`` bounds how many cold segments are held
    materialized at once; loading past the bound evicts the least
    recently used (the file stays on disk — eviction just drops the
    arrays).
    """

    def __init__(self, root: str, max_resident: int = 8) -> None:
        if max_resident < 1:
            raise ValueError("max_resident must be positive")
        self.root = root
        self.max_resident = max_resident
        os.makedirs(root, exist_ok=True)
        self._resident: OrderedDict[str, tuple[np.ndarray, ...]] = OrderedDict()
        self._next = 0
        self.stats = TierStats()

    def store(self, segment: tuple[np.ndarray, ...]) -> SegmentHandle:
        """Spill one immutable segment; returns its handle."""
        writer = ByteWriter()
        writer.varint(len(segment))
        for column in segment:
            is_float = column.dtype.kind == "f"
            writer.varint(1 if is_float else 0).varint(len(column))
            dtype = "<f8" if is_float else "<i8"
            writer.raw(np.ascontiguousarray(column, dtype=dtype).tobytes())
        data = writer.getvalue()
        path = os.path.join(self.root, f"seg-{self._next:08d}.col")
        self._next += 1
        with open(path, "wb") as handle:
            handle.write(data + _CRC.pack(zlib.crc32(data)))
        self.stats.spills += 1
        self.stats.bytes_spilled += len(data)
        return SegmentHandle(path, len(segment[0]))

    def load(self, handle: SegmentHandle) -> tuple[np.ndarray, ...]:
        """Materialize a spilled segment (LRU-cached).

        Raises :class:`ArchiveCorruption` (a :class:`ValueError`) with
        the file path and the failure mode when the file is truncated,
        bit-flipped, or otherwise undecodable — and counts it.
        """
        cached = self._resident.get(handle.path)
        if cached is not None:
            self._resident.move_to_end(handle.path)
            self.stats.cache_hits += 1
            return cached
        with open(handle.path, "rb") as fh:
            raw = fh.read()
        if len(raw) < _CRC.size:
            self.stats.corruptions += 1
            raise ArchiveCorruption(
                f"tier segment {handle.path} truncated ({len(raw)} bytes)"
            )
        data, footer = raw[: -_CRC.size], raw[-_CRC.size :]
        if zlib.crc32(data) != _CRC.unpack(footer)[0]:
            self.stats.corruptions += 1
            raise ArchiveCorruption(
                f"tier segment {handle.path} failed checksum validation"
            )
        try:
            segment = self._decode(data)
        except (ValueError, EOFError, struct.error, IndexError, OverflowError) as exc:
            self.stats.corruptions += 1
            raise ArchiveCorruption(
                f"malformed tier segment {handle.path}: {exc}"
            ) from exc
        self.stats.loads += 1
        self._resident[handle.path] = segment
        while len(self._resident) > self.max_resident:
            self._resident.popitem(last=False)
            self.stats.evictions += 1
        return segment

    @staticmethod
    def _decode(data: bytes) -> tuple[np.ndarray, ...]:
        reader = ByteReader(data)
        columns = []
        for _ in range(reader.varint()):
            is_float = reader.varint()
            count = reader.varint()
            dtype = "<f8" if is_float else "<i8"
            # frombuffer keeps the arrays read-only, which is exactly
            # right for immutable sealed segments.
            columns.append(np.frombuffer(reader.raw(count * 8), dtype=dtype))
        return tuple(columns)

    @property
    def resident_count(self) -> int:
        return len(self._resident)


class TieredSegments:
    """List-shaped sealed-segment container backed by a :class:`DiskTier`.

    Entries are either in-memory segment tuples (the hot tail) or
    :class:`SegmentHandle`\\ s (cold, spilled). Reads materialize cold
    entries through the tier's LRU cache; handles themselves are never
    mutated, so ``copy()`` (used by archive snapshots) is a cheap
    shallow copy that shares both hot segments and handles.
    """

    def __init__(self, tier: DiskTier, segments=None, hot: int = 2) -> None:
        if hot < 0:
            raise ValueError("hot segment count cannot be negative")
        self._tier = tier
        self._hot = hot
        self._entries: list = list(segments) if segments else []
        self._spill_cold()

    # -- list protocol (what the store/codec/replication touch) ------------

    def append(self, segment: tuple[np.ndarray, ...]) -> None:
        self._entries.append(segment)
        self._spill_cold()

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[tuple[np.ndarray, ...]]:
        for entry in list(self._entries):
            yield self._materialize(entry)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._materialize(entry) for entry in self._entries[index]]
        return self._materialize(self._entries[index])

    def copy(self) -> "TieredSegments":
        view = TieredSegments(self._tier, hot=self._hot)
        view._entries = list(self._entries)
        return view

    # -- store integration hooks -------------------------------------------

    def fresh(self) -> "TieredSegments":
        """An empty container on the same tier (compaction rebuilds)."""
        return TieredSegments(self._tier, hot=self._hot)

    def row_counts(self) -> list[int]:
        """Per-segment row counts without materializing cold segments."""
        return [
            entry.rows if isinstance(entry, SegmentHandle) else len(entry[0])
            for entry in self._entries
        ]

    # -- internals ----------------------------------------------------------

    def _spill_cold(self) -> None:
        cold = len(self._entries) - self._hot
        for i in range(max(0, cold)):
            entry = self._entries[i]
            if not isinstance(entry, SegmentHandle):
                self._entries[i] = self._tier.store(entry)

    def _materialize(self, entry) -> tuple[np.ndarray, ...]:
        if isinstance(entry, SegmentHandle):
            return self._tier.load(entry)
        return entry

    @property
    def spilled_count(self) -> int:
        return sum(1 for entry in self._entries if isinstance(entry, SegmentHandle))
