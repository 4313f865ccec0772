"""Deterministic fault injection for the site runtime.

Real RFID federations (dock doors, cold-chain trucks) lose, reorder,
duplicate, and delay messages. :class:`FaultyTransport` is a decorator
over any reliable :class:`~repro.runtime.transport.Transport` that
injects exactly those faults per ``(src, dst)`` link, driven by a
seeded :class:`FaultPlan` — the same seed always produces the same
fault schedule, which is what makes the chaos test harness's
bit-identity invariant checkable.

Accounting discipline (the ledger invariant): the *first* transmission
of each sequenced envelope is accounted under the envelope's own kind,
so per-kind data totals stay byte-identical to a fault-free run. Every
repeat — a reliability-layer retransmit or a network-injected duplicate
— is accounted under the ``retransmit`` kind, and acknowledgement
frames under ``ack``; together those two kinds are the run's fault
overhead (Table 5d).

Eventual delivery is guaranteed by construction: each sequenced message
is dropped at most :attr:`LinkFaults.max_drops` times and delayed at
most :attr:`LinkFaults.max_delay` flush rounds, so the cluster's
ack/retransmit loop always converges.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from repro._util.rng import spawn_rng
from repro.distributed.network import ACK, EDGE_ACK, RETRANSMIT
from repro.obs import get_telemetry
from repro.runtime.envelope import Envelope
from repro.runtime.transport import Handler, InProcessTransport, Transport

__all__ = ["LinkFaults", "FaultPlan", "FaultyTransport"]


@dataclass(frozen=True)
class LinkFaults:
    """Fault rates for one directed ``(src, dst)`` link.

    Probabilities apply independently per transmission attempt, in
    order: drop, duplicate, delay. A delayed message is held for 1 to
    ``max_delay`` flush rounds; messages released in the same round are
    re-shuffled, which (together with delays) reorders the link.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 2
    #: per-message drop cap — guarantees eventual delivery.
    max_drops: int = 4

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "delay"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise ValueError(f"{name} probability must be in [0, 1), got {p}")
        if self.max_delay < 1:
            raise ValueError("max_delay must be at least one flush round")
        if self.max_drops < 0:
            raise ValueError("max_drops must be non-negative")

    @property
    def lossless(self) -> bool:
        return self.drop == 0.0 and self.duplicate == 0.0 and self.delay == 0.0


@dataclass(frozen=True)
class FaultPlan:
    """A seeded assignment of :class:`LinkFaults` to links.

    ``default`` applies to every link not named in ``links``. The seed
    feeds one independent RNG stream per link, so the fault schedule of
    a link depends only on the seed and that link's own traffic order —
    deterministic even when the wrapped transport runs sites on worker
    threads (per-link send order is fixed by the cluster's phases).
    """

    seed: int = 0
    default: LinkFaults = LinkFaults()
    links: tuple[tuple[tuple[int, int], LinkFaults], ...] = ()

    @classmethod
    def chaos(
        cls,
        seed: int,
        drop: float = 0.25,
        duplicate: float = 0.2,
        delay: float = 0.25,
        max_delay: int = 3,
    ) -> "FaultPlan":
        """A convenience plan mixing every fault on every link."""
        return cls(
            seed=seed,
            default=LinkFaults(
                drop=drop, duplicate=duplicate, delay=delay, max_delay=max_delay
            ),
        )

    def for_link(self, src: int, dst: int) -> LinkFaults:
        for link, faults in self.links:
            if link == (src, dst):
                return faults
        return self.default


class FaultyTransport(Transport):
    """Chaos decorator: injects seeded per-link faults into a transport.

    Wraps a *reliable* inner transport (default: a fresh
    :class:`InProcessTransport` sharing this ledger) and advertises
    ``reliable = False``, switching nodes to at-least-once delivery
    (sequence numbers, acks, dedup) — see
    :meth:`repro.runtime.node.SiteNode.handle`.
    """

    reliable = False

    def __init__(self, plan: FaultPlan, inner: Transport | None = None) -> None:
        if inner is not None and not inner.reliable:
            raise ValueError("FaultyTransport must wrap a reliable transport")
        super().__init__(None if inner is None else inner.ledger)
        self.plan = plan
        self.inner = inner if inner is not None else InProcessTransport(self.ledger)
        if getattr(self.inner, "hosts_sites", False):
            # A site-hosting inner runs nodes in worker processes, whose
            # outgoing envelopes surface at the parent through the
            # inner's egress hook — repoint it here so worker-origin
            # traffic passes fault injection exactly like local sends.
            # Workers also need their nodes on at-least-once delivery:
            # `outer_reliable` is what the in-worker transport shim
            # advertises to them (set before the fork, inherited by it).
            self.inner.egress = self.send
            self.inner.outer_reliable = False
        self._lock = threading.Lock()
        self._rngs: dict[tuple[int, int], np.random.Generator] = {}
        self._release_rng = spawn_rng(plan.seed, "faults", "release")
        #: sequenced (src, dst, seq) triples already transmitted once.
        self._seen: set[tuple[int, int, int]] = set()
        self._drops: dict[tuple[int, int, str, int], int] = {}
        #: held messages: (release_round, arrival_index, envelope).
        self._held: list[tuple[int, int, Envelope]] = []
        self._round = 0
        self._arrivals = 0
        #: fault totals for reporting: injected events by type.
        self.injected = {"drop": 0, "duplicate": 0, "delay": 0}

    # -- plumbing to the wrapped transport ---------------------------------

    def register(self, site: int, handler: Handler) -> None:
        self.inner.register(site, handler)

    def dispatch(self, site: int, fn) -> None:
        self.inner.dispatch(site, fn)

    def deliver(self, env: Envelope) -> None:
        self.inner.deliver(env)

    def close(self) -> None:
        self.inner.close()

    # -- site hosting (delegated to a process-parallel inner) ---------------

    @property
    def hosts_sites(self) -> bool:  # type: ignore[override]
        return bool(getattr(self.inner, "hosts_sites", False))

    def host_site(self, site, ops) -> None:
        self.inner.host_site(site, ops)

    def site_call(self, site: int, op: str, *args: object) -> object:
        return self.inner.site_call(site, op, *args)

    def site_cast(self, site: int, op: str, *args: object) -> None:
        self.inner.site_cast(site, op, *args)

    def maybe_rebalance(self) -> bool:
        rebalance = getattr(self.inner, "maybe_rebalance", None)
        return rebalance() if rebalance is not None else False

    def worker_stats(self) -> list[dict]:
        stats = getattr(self.inner, "worker_stats", None)
        return stats() if stats is not None else []

    def collect_telemetry(self, tel=None) -> int:
        collect = getattr(self.inner, "collect_telemetry", None)
        return collect(tel) if collect is not None else 0

    # -- fault injection ----------------------------------------------------

    def _link_rng(self, src: int, dst: int) -> np.random.Generator:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = spawn_rng(self.plan.seed, "faults", src, dst)
        return rng

    def _account(self, env: Envelope, retransmission: bool) -> None:
        if env.kind in (ACK, EDGE_ACK):
            kind = env.kind
        else:
            kind = RETRANSMIT if retransmission else env.kind
        self.ledger.send(env.src, env.dst, kind, env.payload)

    def _hold(self, env: Envelope, rounds: int) -> None:
        self._arrivals += 1
        self._held.append((self._round + rounds, self._arrivals, env))

    def send(self, env: Envelope) -> None:
        # Delivery happens outside the lock: under a synchronous inner
        # transport the handler may itself send (acks, relays), which
        # would re-enter this non-reentrant lock.
        copies = 0
        with self._lock:
            if not env.seq:
                # Unsequenced traffic has no retransmit protection, so
                # faults would silently lose it: pass it through intact.
                self._account(env, False)
                copies = 1
            else:
                copies = self._inject(env)
        for _ in range(copies):
            self.inner.deliver(env)

    def _inject(self, env: Envelope) -> int:
        """Account ``env``, apply the link's fault rolls, and return how
        many copies to deliver right now (held/dropped copies return 0)."""
        faults = self.plan.for_link(env.src, env.dst)
        key = (env.src, env.dst, env.kind, env.seq)
        retransmission = (env.src, env.dst, env.seq) in self._seen
        if env.kind not in (ACK, EDGE_ACK):
            self._seen.add((env.src, env.dst, env.seq))
        self._account(env, retransmission)
        if faults.lossless:
            return 1
        rng = self._link_rng(env.src, env.dst)
        # Fixed draw order per attempt keeps the schedule deterministic
        # regardless of outcomes.
        roll_drop = rng.random()
        roll_dup = rng.random()
        roll_delay = rng.random()
        if roll_drop < faults.drop:
            drops = self._drops.get(key, 0)
            if drops < faults.max_drops:
                self._drops[key] = drops + 1
                self._note_fault("drop", env)
                return 0
        copies = 1
        if roll_dup < faults.duplicate:
            copies = 2
            self._note_fault("duplicate", env)
            self._account(env, True)  # the extra wire copy
        if roll_delay < faults.delay:
            self._note_fault("delay", env)
            rounds = int(rng.integers(1, faults.max_delay + 1))
            for _ in range(copies):
                self._hold(env, rounds)
            return 0
        return copies

    def _note_fault(self, fault: str, env: Envelope) -> None:
        """Count an injected fault (own dict + ledger gauge) and,
        when telemetry is on, log the state transition to the flight
        recorder. Telemetry never feeds back into the RNG draws or the
        delivery decision, so traced and untraced schedules are equal."""
        self.injected[fault] += 1
        self.ledger.faults_injected[fault] += 1
        tel = get_telemetry()
        if tel.enabled:
            tel.recorder.record_state(
                "faults", f"inject.{fault}",
                src=env.src, dst=env.dst, kind=env.kind, seq=env.seq,
            )

    # -- the flush barrier ---------------------------------------------------

    def flush(self) -> None:
        """Deliver everything due, advancing one delay round per call.

        Messages still held for future rounds survive the call — the
        cluster's ack/retransmit loop keeps flushing until every
        sequenced envelope is acknowledged, so delays expire and late
        duplicates drain into the dedup layer.
        """
        while True:
            with self._lock:
                self._round += 1
                due = [item for item in self._held if item[0] <= self._round]
                self._held = [item for item in self._held if item[0] > self._round]
                # Shuffle the round's releases: reordering within the
                # link beyond what staggered delays already produce.
                order = self._release_rng.permutation(len(due)) if due else []
                batch = [due[i][2] for i in order]
            for env in batch:
                self.inner.deliver(env)
            self.inner.flush()
            if not batch:
                return

    def pending_count(self) -> int:
        """Messages still held for future flush rounds."""
        with self._lock:
            return len(self._held)

    @property
    def sync_round_limit(self) -> int:
        """Retransmit rounds the cluster barrier should allow.

        A sequenced envelope is forced through after ``max_drops``
        drops plus at most ``max_delay`` rounds in the delay buffer,
        and its ack needs the same on the reverse link — so twice the
        worst link's budget (plus slack) bounds convergence. Capped so
        a pathological plan (e.g. ``max_drops=10**9``) fails loudly in
        bounded time instead of spinning for years.
        """
        faults = [self.plan.default] + [spec for _, spec in self.plan.links]
        worst = max(spec.max_drops + spec.max_delay for spec in faults)
        return max(64, min(2 * worst + 8, 4096))
