"""The ingest gateway: where dirty edge streams become clean windows.

The :class:`IngestGateway` is the single funnel between per-reader
:class:`~repro.edge.node.EdgeNode`\\ s and the federation. Its job is to
make at-least-once, out-of-order, duplicated delivery look exactly like
the clean trace:

* **ordering + dedup** — per-edge expected sequence numbers with a
  bounded reorder buffer; a batch below the expected number (or already
  buffered) is a duplicate: counted, re-acked, not re-applied. Within a
  batch, readings land in per-site *sets*, so replayed payloads are
  idempotent.
* **durability** — every accepted batch is appended to a crc-framed
  write-ahead log *before* its ack goes out. Acked therefore implies
  durable: a gateway crash+restart replays the WAL (idempotently,
  through the same apply path, including the recorded seal points) and
  the edges' retransmits cover anything that died between wire and WAL.
* **epoch boundaries** — readings stage until their inference window is
  *sealed*. A window seals when every edge's progress watermark has
  passed it (an offline reader freezes the watermark, holding the seal
  for its burst replay), or — after ``max_lag`` wall epochs — by force,
  so one dead reader degrades freshness, never liveness.
* **late arrivals** — a reading for an already-sealed window is counted
  and surfaced as a ledger gauge, then either dropped
  (``late_policy="drop"``) or merged by a bounded re-run of that
  window's assembly (``"rerun"``, at most ``rerun_window`` boundaries
  back). Graceful degradation; never a crash.

:meth:`build_traces` hands the federation complete per-site
:class:`~repro.sim.trace.Trace` objects via ``Trace.from_columns`` —
bit-identical to the simulator's when the reading sets converge, which
is the chaos harness's oracle.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.distributed.network import Network
from repro.edge.node import GATEWAY_SITE
from repro.obs import get_telemetry
from repro.edge.wire import EDGE_ACK, EDGE_BATCH, EdgeBatch, decode_edge_batch
from repro.runtime.envelope import Envelope, encode_ack
from repro.runtime.transport import Transport
from repro.sim.trace import Reading, Trace

__all__ = ["GatewayStats", "IngestGateway", "GATEWAY_SITE"]

_FRAME = struct.Struct("<I")
_REC_BATCH = 0
_REC_SEAL = 1


@dataclass
class GatewayStats:
    """Counters for one gateway."""

    batches_applied: int = 0
    duplicate_batches: int = 0
    reordered_batches: int = 0
    reorder_overflow: int = 0
    malformed_batches: int = 0
    duplicate_readings: int = 0
    late_readings: int = 0
    late_dropped: int = 0
    window_reruns: int = 0
    forced_seals: int = 0
    wal_records: int = 0
    wal_skipped: int = 0
    restarts: int = 0
    #: high-water mark of readings staged awaiting their seal.
    max_staged_readings: int = 0

    def as_dict(self) -> dict:
        return dict(vars(self))


@dataclass
class _EdgeLink:
    """Per-edge delivery state."""

    expected: int = 1
    upto: int = -1
    buffer: dict[int, EdgeBatch] = field(default_factory=dict)


class IngestGateway:
    """Deduplicating, reordering, crash-durable ingest funnel."""

    def __init__(
        self,
        n_sites: int,
        interval: int,
        wal_dir: str,
        *,
        site_id: int = GATEWAY_SITE,
        reorder_window: int = 64,
        max_lag: int | None = None,
        late_policy: str = "drop",
        rerun_window: int = 2,
        ledger: Network | None = None,
    ) -> None:
        if late_policy not in ("drop", "rerun"):
            raise ValueError(f"unknown late policy {late_policy!r}")
        self.n_sites = n_sites
        self.interval = interval
        self.site_id = site_id
        self.reorder_window = reorder_window
        self.max_lag = max_lag
        self.late_policy = late_policy
        self.rerun_window = rerun_window
        self.ledger = ledger if ledger is not None else Network()
        self.wal_dir = wal_dir
        os.makedirs(wal_dir, exist_ok=True)
        self._wal_path = os.path.join(wal_dir, "wal.log")
        self._wal = open(self._wal_path, "ab")
        self.stats = GatewayStats()
        self._transport: Transport | None = None
        self._replaying = False
        self._reset_volatile()

    def _reset_volatile(self) -> None:
        self._edges: dict[int, _EdgeLink] = {}
        #: site -> readings staged for not-yet-sealed windows.
        self._staged: list[set[Reading]] = [set() for _ in range(self.n_sites)]
        #: site -> {window boundary -> sealed reading set}.
        self._sealed: list[dict[int, set[Reading]]] = [
            {} for _ in range(self.n_sites)
        ]
        self.sealed_boundary = 0

    def bind(self, transport: Transport) -> None:
        transport.register(self.site_id, self.handle)
        self._transport = transport

    def expect_edge(self, edge_id: int) -> _EdgeLink:
        """Pre-register an edge so its silence holds the watermark even
        before (or without) a first delivered batch."""
        link = self._edges.get(edge_id)
        if link is None:
            link = self._edges[edge_id] = _EdgeLink()
        return link

    # -- delivery ------------------------------------------------------------

    def handle(self, env: Envelope) -> None:
        if env.kind != EDGE_BATCH:
            return
        try:
            batch = decode_edge_batch(env.payload)
        except ValueError:
            self.stats.malformed_batches += 1
            return  # no ack: the edge will retransmit an intact copy
        link = self.expect_edge(batch.edge_id)
        if batch.seq < link.expected or batch.seq in link.buffer:
            self.stats.duplicate_batches += 1
            self.ledger.edge_duplicate_batches += 1
            self._ack(env.src, batch.seq)
            return
        if batch.seq > link.expected:
            if len(link.buffer) >= self.reorder_window:
                self.stats.reorder_overflow += 1
                return  # unacked: retransmitted once the window drains
            self.stats.reordered_batches += 1
            link.buffer[batch.seq] = batch
            self._append_wal(_REC_BATCH, env.payload)
            self._ack(env.src, batch.seq)
            return
        self._append_wal(_REC_BATCH, env.payload)
        self._ack(env.src, batch.seq)
        self._apply(link, batch)
        while link.expected in link.buffer:
            self._apply(link, link.buffer.pop(link.expected))

    def _ack(self, dst: int, seq: int) -> None:
        if self._replaying or self._transport is None:
            return
        self._transport.send(
            Envelope(self.site_id, dst, EDGE_ACK, encode_ack(seq), seq=seq)
        )

    def _apply(self, link: _EdgeLink, batch: EdgeBatch) -> None:
        link.expected = batch.seq + 1
        link.upto = max(link.upto, batch.upto)
        self.stats.batches_applied += 1
        tel = get_telemetry()
        if tel.enabled and not self._replaying:
            tel.registry.counter("gateway_batches", edge=batch.edge_id).inc()
            tel.registry.counter("gateway_readings", edge=batch.edge_id).inc(
                len(batch.readings)
            )
        if not 0 <= batch.site < self.n_sites:
            self.stats.malformed_batches += 1
            return
        staged = self._staged[batch.site]
        for reading in batch.readings:
            if reading.time < self.sealed_boundary:
                self._late(batch.site, reading)
            elif reading in staged:
                self.stats.duplicate_readings += 1
            else:
                staged.add(reading)
        self.stats.max_staged_readings = max(
            self.stats.max_staged_readings,
            sum(len(s) for s in self._staged),
        )

    # -- late arrivals ---------------------------------------------------------

    def _late(self, site: int, reading: Reading) -> None:
        """A reading for an already-sealed window: degrade, don't crash."""
        self.stats.late_readings += 1
        boundary = self._window_of(reading.time)
        recoverable = (
            self.late_policy == "rerun"
            and boundary >= self.sealed_boundary - self.rerun_window * self.interval
        )
        if not recoverable:
            self.stats.late_dropped += 1
            if not self._replaying:
                self.ledger.edge_late_readings += 1
                self.ledger.edge_late_dropped += 1
            return
        if not self._replaying:
            self.ledger.edge_late_readings += 1
        window = self._sealed[site].setdefault(boundary, set())
        if reading in window:
            self.stats.duplicate_readings += 1
            return
        # Bounded re-run: amend the sealed window's assembly. The
        # federation consumes windows at build time, so the amendment is
        # the re-run — deliberately cheap and bounded by rerun_window.
        window.add(reading)
        self.stats.window_reruns += 1
        if not self._replaying:
            self.ledger.edge_window_reruns += 1

    def _window_of(self, time: int) -> int:
        """The seal boundary of the window containing ``time``
        (windows are ``[b - interval, b)``)."""
        return (time // self.interval + 1) * self.interval

    # -- epoch sealing ---------------------------------------------------------

    def watermark(self) -> int:
        """Feed progress the whole edge fleet has confirmed."""
        if not self._edges:
            return -1
        return min(link.upto for link in self._edges.values())

    def advance(self, wall: int) -> None:
        """Seal every due window the watermark (or ``max_lag``) allows."""
        while True:
            boundary = self.sealed_boundary + self.interval
            if boundary > wall:
                return
            if self.watermark() >= boundary - 1:
                self._seal(boundary)
            elif self.max_lag is not None and wall - boundary >= self.max_lag:
                self.stats.forced_seals += 1
                self._seal(boundary)
            else:
                return

    def _seal(self, boundary: int) -> None:
        tel = get_telemetry()
        with tel.span("edge", "gateway.seal", boundary=boundary) as span:
            self._append_wal(_REC_SEAL, struct.pack("<q", boundary))
            sealed_readings = 0
            for site in range(self.n_sites):
                staged = self._staged[site]
                window = {r for r in staged if r.time < boundary}
                self._sealed[site][boundary] = window
                staged.difference_update(window)
                sealed_readings += len(window)
            span.set(readings=sealed_readings, replaying=self._replaying)
            self.sealed_boundary = boundary

    # -- the write-ahead log ----------------------------------------------------

    def _append_wal(self, rec_type: int, payload: bytes) -> None:
        if self._replaying:
            return
        record = bytes([rec_type]) + payload
        framed = _FRAME.pack(len(record)) + record + _FRAME.pack(zlib.crc32(record))
        self._wal.write(framed)
        self._wal.flush()
        self.stats.wal_records += 1

    def _read_wal(self) -> list[tuple[int, bytes]]:
        """Every intact record; stops at the first torn/corrupt tail."""
        try:
            with open(self._wal_path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return []
        records, offset = [], 0
        while offset + _FRAME.size <= len(data):
            (length,) = _FRAME.unpack_from(data, offset)
            end = offset + _FRAME.size + length + _FRAME.size
            if length < 1 or end > len(data):
                self.stats.wal_skipped += 1
                break
            record = data[offset + _FRAME.size : end - _FRAME.size]
            (crc,) = _FRAME.unpack_from(data, end - _FRAME.size)
            if zlib.crc32(record) != crc:
                self.stats.wal_skipped += 1
                break
            records.append((record[0], record[1:]))
            offset = end
        return records

    # -- crash/restart -----------------------------------------------------------

    def restart(self) -> None:
        """Crash and recover: rebuild all volatile state from the WAL.

        Replay runs accepted batches and seal points through the normal
        apply path in their original order, so duplicate classification,
        late-arrival policy, and window contents are reproduced exactly;
        acks, WAL appends, and ledger gauges are suppressed while
        replaying (they already happened)."""
        get_telemetry().record_state(
            "edge", "gateway.restart", sealed_boundary=self.sealed_boundary
        )
        self.stats.restarts += 1
        known_edges = set(self._edges)
        self._wal.close()
        self._reset_volatile()
        for edge_id in known_edges:
            self.expect_edge(edge_id)
        records = self._read_wal()
        self._replaying = True
        try:
            for rec_type, payload in records:
                if rec_type == _REC_BATCH:
                    self.handle(
                        Envelope(0, self.site_id, EDGE_BATCH, payload, seq=1)
                    )
                elif rec_type == _REC_SEAL:
                    (boundary,) = struct.unpack("<q", payload)
                    while self.sealed_boundary < boundary:
                        self._seal(self.sealed_boundary + self.interval)
        finally:
            self._replaying = False
        self._wal = open(self._wal_path, "ab")

    def close(self) -> None:
        self._wal.close()

    # -- hand-off to the federation ------------------------------------------------

    def finalize(self, horizon: int) -> None:
        """Seal every window through ``horizon`` (end of stream)."""
        self.advance(((horizon + self.interval - 1) // self.interval) * self.interval)

    def build_traces(self, layouts, models, horizon: int) -> list[Trace]:
        """Complete per-site traces from every sealed window."""
        traces = []
        for site in range(self.n_sites):
            rows: list[Reading] = []
            for boundary in sorted(self._sealed[site]):
                rows.extend(self._sealed[site][boundary])
            rows.extend(self._staged[site])  # unsealed tail, if any
            tag_table = sorted({r.tag for r in rows})
            index = {tag: i for i, tag in enumerate(tag_table)}
            times = np.fromiter((r.time for r in rows), dtype=np.int64, count=len(rows))
            tag_ids = np.fromiter(
                (index[r.tag] for r in rows), dtype=np.int64, count=len(rows)
            )
            readers = np.fromiter(
                (r.reader for r in rows), dtype=np.int64, count=len(rows)
            )
            traces.append(
                Trace.from_columns(
                    site, layouts[site], models[site],
                    times, tag_ids, readers, tag_table, horizon,
                )
            )
        return traces

    @property
    def total_readings(self) -> int:
        return sum(len(s) for s in self._staged) + sum(
            len(w) for site in self._sealed for w in site.values()
        )
