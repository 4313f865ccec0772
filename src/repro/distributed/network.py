"""The communication-cost ledger, with per-kind and per-link accounting.

All migrated state crosses a transport that records into this ledger,
so Table 5's communication-cost comparison (centralized vs None vs CR)
is simply the per-kind sums it accumulates, and the per-link
``(src, dst)`` counters give the table's site-to-site breakdown.

Synthetic site ids appear as endpoints: ``-1`` is the central server
(centralized baseline), ``-2`` the Object Naming Service.

Fault-tolerance traffic is kept out of the paper's data kinds: the
at-least-once layer accounts retransmitted payload bytes under the
``retransmit`` kind and acknowledgement frames under ``ack``, so a run
over a lossy transport reports byte-identical *data* totals to the
fault-free run plus an explicit fault-overhead column (Table 5d).

Next to the byte kinds the ledger keeps the always-on operational
gauges (query-plan sharing, shard/worker load, serving retransmits,
edge degradation, stability-gate pruning, injected faults) as plain
``int`` and ``Counter`` attributes that their owners bump in place. The
ledger lives in the parent process: worker-side code never touches it.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

__all__ = [
    "Message",
    "Network",
    "ACK",
    "EDGE_ACK",
    "RETRANSMIT",
    "FAULT_OVERHEAD_KINDS",
]

#: ledger kind for at-least-once acknowledgement frames.
ACK = "ack"
#: ledger kind for the ingest gateway's batch acknowledgements (the
#: edge plane's equivalent of ``ack``; a separate kind keeps edge
#: delivery overhead visible next to the federation's).
EDGE_ACK = "edge-ack"
#: ledger kind for every repeated transmission of a sequenced envelope —
#: reliability-layer retransmits and network-injected duplicates alike.
RETRANSMIT = "retransmit"
#: kinds that exist only because links are lossy.
FAULT_OVERHEAD_KINDS = (ACK, EDGE_ACK, RETRANSMIT)


class Message(NamedTuple):
    """One delivered message."""

    src: int
    dst: int
    kind: str
    payload: bytes


class Network:
    """Reliable in-order delivery with cost accounting."""

    def __init__(self, keep_log: bool = False):
        self.bytes_by_kind: Counter = Counter()
        self.messages_by_kind: Counter = Counter()
        #: per-link counters keyed by the ``(src, dst)`` pair.
        self.bytes_by_link: Counter = Counter()
        self.messages_by_link: Counter = Counter()
        self.log: list[Message] = []
        self.keep_log = keep_log
        #: shard/worker load gauges (process-parallel transports):
        #: current site count per worker and cumulative envelope bytes
        #: delivered into / originated out of each worker's shard.
        self.shard_sites: dict = {}
        self.shard_bytes_in: Counter = Counter()
        self.shard_bytes_out: Counter = Counter()
        #: times the shard rebalancer moved a site.
        self.rebalances = 0
        #: query-plan operator gauges (multi-query optimization): operator
        #: instances actually built across all sites' engines, and
        #: registrations served by an operator another query already built.
        self.plan_operators_built = 0
        self.plan_operators_shared = 0
        #: history-request retransmissions issued by the serving
        #: frontend's gather loop (capped-backoff schedule).
        self.frontend_retransmits = 0
        #: edge-ingestion gauges (the readings → edge → gateway hop): batch
        #: payloads that arrived for an already-sealed epoch window, how many
        #: of those were dropped vs merged by a bounded window re-run, and
        #: duplicate batches the gateway's sequence window absorbed.
        self.edge_late_readings = 0
        self.edge_late_dropped = 0
        self.edge_window_reruns = 0
        self.edge_duplicate_batches = 0
        #: per-site cumulative tags the stability gate skipped, and tags
        #: that ran full inference.
        self.pruned_tags: Counter = Counter()
        self.full_inference_tags: Counter = Counter()
        #: faults a fault-injecting transport injected, by fault type.
        self.faults_injected: Counter = Counter()

    def send(self, src: int, dst: int, kind: str, payload: bytes) -> bytes:
        """Deliver ``payload`` and account for its size."""
        self.bytes_by_kind[kind] += len(payload)
        self.messages_by_kind[kind] += 1
        self.bytes_by_link[(src, dst)] += len(payload)
        self.messages_by_link[(src, dst)] += 1
        if self.keep_log:
            self.log.append(Message(src, dst, kind, payload))
        return payload

    def total_bytes(self) -> int:
        return sum(self.bytes_by_kind.values())

    def total_messages(self) -> int:
        return sum(self.messages_by_kind.values())

    # -- fault-overhead breakdown --------------------------------------------

    def data_bytes_by_kind(self) -> dict[str, int]:
        """Per-kind byte totals excluding reliability-layer overhead.

        Under any seeded fault plan these match the fault-free run
        exactly (the chaos harness's ledger invariant)."""
        return {
            kind: count
            for kind, count in self.bytes_by_kind.items()
            if kind not in FAULT_OVERHEAD_KINDS
        }

    def fault_overhead_bytes(self) -> int:
        """Bytes spent surviving the network: retransmits + acks."""
        return sum(self.bytes_by_kind[kind] for kind in FAULT_OVERHEAD_KINDS)

    # -- per-link breakdown --------------------------------------------------

    def links(self) -> list[tuple[int, int]]:
        """Every ``(src, dst)`` pair that carried traffic, sorted."""
        return sorted(self.bytes_by_link)

    def link_bytes(self, src: int, dst: int) -> int:
        return self.bytes_by_link[(src, dst)]

    def link_messages(self, src: int, dst: int) -> int:
        return self.messages_by_link[(src, dst)]

    def per_link_rows(self) -> list[tuple[int, int, int, int]]:
        """``(src, dst, messages, bytes)`` rows for benchmark tables."""
        return [
            (src, dst, self.messages_by_link[(src, dst)], self.bytes_by_link[(src, dst)])
            for src, dst in self.links()
        ]

    # -- gauge views -----------------------------------------------------------

    def edge_gauges(self) -> dict[str, int]:
        """The edge plane's degradation gauges, for reports and benches."""
        return {
            "late_readings": self.edge_late_readings,
            "late_dropped": self.edge_late_dropped,
            "window_reruns": self.edge_window_reruns,
            "duplicate_batches": self.edge_duplicate_batches,
        }

    def worker_rows(self) -> list[tuple[int, int, int, int]]:
        """``(worker, shard_sites, bytes_in, bytes_out)`` rows; empty
        when no sharded transport fed the ledger."""
        workers = sorted(
            set(self.shard_sites) | set(self.shard_bytes_in) | set(self.shard_bytes_out)
        )
        return [
            (
                w,
                self.shard_sites.get(w, 0),
                self.shard_bytes_in[w],
                self.shard_bytes_out[w],
            )
            for w in workers
        ]
