"""The query-serving frontend: federated time-travel queries.

A :class:`QueryFrontend` registers on the cluster's transport as a
synthetic site (``FRONTEND_SITE``, alongside the ONS at ``-2`` and the
centralized server at ``-1``) and executes historical queries by
**scatter-gather**: one ``history-request`` envelope per site, answers
merged per query kind. All serving traffic flows through the ordinary
:class:`~repro.runtime.transport.Transport` send path, so the ledger
accounts it per link under its own kinds — the paper's Table 5 data
kinds are untouched.

**At-least-once.** Requests are idempotent reads, so instead of
entangling serving traffic with the cluster's sequenced ack/outbox
machinery the frontend simply retransmits a request until the site's
response arrives, deduplicating responses on the request id. One
transport flush is a delivery barrier, so on a reliable transport the
first round always completes; a lossy transport costs extra rounds
(counted in :attr:`ServingStats.retransmits`).

**Replica routing.** When :meth:`bind` is given read replicas
(:mod:`repro.serving.replica`), each site's answers may come from the
primary or any of its replicas — chosen per query tag by a
deterministic consistent-hash ring (:class:`~repro.serving.routing.HashRing`)
with **two-choice balancing**: the tag's two ring owners are the only
candidates (so its reads concentrate on at most two endpoints and the
archive pages stay warm there) and the less-loaded of the pair serves
each request (so a skewed tag mix cannot pile onto one replica). Replicas answer in the primary's name (``response.site``
is the primary), which keeps the merge, the epoch vector, and the
at-least-once bookkeeping identical to the primary-only path; if an
endpoint stays silent the gather fails over to the primary after a
couple of rounds.

**Caching.** Results are cached under the query's parameters, tagged
with the *epoch vector* — every site's last archived boundary — at fill
time. The cluster notifies the frontend after each boundary's appends
(:meth:`note_append`), which advances the vector and thereby
invalidates every entry formed against the older one; responses carry
``as_of`` so even an unattached frontend converges. A response from a
*lagging* replica lowers the entry's tag to the replica's ``as_of``,
so an answer missing freshly archived rows can never be served once
the frontend knows newer boundaries exist. A warm cache serves
repeated audit queries without touching the network.

**Admission control.** At most ``max_in_flight`` queries may be
admitted and unanswered at once; beyond that execution raises
:class:`Backpressure` — the client's signal to drain before submitting
more. Per-tenant :class:`~repro.serving.routing.TenantPolicy` limits
(quotas, background priorities) layer on top. Clients interact through
:class:`ServingSession` handles (:meth:`QueryFrontend.session`), which
carry per-session statistics for multi-tenant accounting;
:meth:`execute_many` admits and scatters a whole batch before the
first flush, which is what lets replica endpoints work in parallel.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Mapping, NamedTuple, Sequence

from repro.obs import get_telemetry
from repro.runtime.envelope import HISTORY_REQUEST, HISTORY_RESPONSE, Envelope
from repro.runtime.transport import Transport
from repro.serving.routing import HashRing, TenantPolicy
from repro.serving.wire import (
    HistoryRequest,
    HistoryResponse,
    decode_history_response,
    encode_history_request,
)
from repro.sim.tags import EPC

__all__ = ["FRONTEND_SITE", "Backpressure", "QueryResult", "QueryFrontend", "ServingSession"]

#: synthetic ledger site id of the serving frontend.
FRONTEND_SITE = -3


class Backpressure(RuntimeError):
    """Raised when admission control rejects a query (queue full)."""


class QueryResult(NamedTuple):
    """One federated answer.

    For point kinds (``location``/``containment``/``provenance``) the
    rows come from the freshest site (``site`` names it; ``None`` = no
    site had an answer). For range kinds (``trajectory``/``dwell``/
    ``alerts``) the rows pool every site's answer, each row prefixed
    with its site id, in canonical order.
    """

    kind: str
    site: int | None
    rows: tuple


@dataclass
class ServingStats:
    """Counters for one frontend (or one session)."""

    queries: int = 0
    cache_hits: int = 0
    remote_requests: int = 0
    retransmits: int = 0
    rejected: int = 0
    #: misrouted or malformed envelopes dropped by :meth:`QueryFrontend.handle`.
    dropped: int = 0

    def hit_rate(self) -> float:
        return self.cache_hits / self.queries if self.queries else 0.0


#: kinds answered by the single freshest site.
_POINT_KINDS = ("location", "containment", "provenance")

#: gather rounds before a silent replica endpoint fails over to its primary.
_FAILOVER_ROUNDS = 2


class QueryFrontend:
    """Scatter-gather execution of historical queries across sites."""

    #: retransmit rounds before a missing response is a hard error.
    MAX_ROUNDS = 64
    #: cap (in gather rounds) on the exponential retransmit backoff, so
    #: a dead site costs O(log rounds) retransmits instead of one per
    #: round — a hot retransmit loop under MAX_ROUNDS of silence.
    BACKOFF_CAP = 16

    def __init__(
        self,
        max_in_flight: int = 64,
        cache_capacity: int = 1024,
        site_id: int = FRONTEND_SITE,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be positive")
        self.site_id = site_id
        self.max_in_flight = max_in_flight
        self.cache_capacity = cache_capacity
        self.stats = ServingStats()
        self._transport: Transport | None = None
        self._sites: list[int] = []
        #: per-site endpoint ring (primary + replicas); absent = primary only.
        self._rings: dict[int, HashRing] = {}
        #: requests sent per endpoint — the load signal for two-choice
        #: routing. Heuristic: read without the lock, never decremented.
        self._endpoint_sent: dict[int, int] = {}
        self._lock = threading.Lock()
        #: per-site last archived boundary (the cache's epoch vector).
        self._epochs: dict[int, int] = {}
        #: request_id -> {site: HistoryResponse} for in-flight queries.
        self._responses: dict[int, dict[int, HistoryResponse]] = {}
        self._next_request_id = 1
        self._in_flight = 0
        self._tenants: dict[str, TenantPolicy] = {}
        self._tenant_in_flight: dict[str, int] = {}
        #: cache: key -> (epoch vector at fill time, merged result).
        self._cache: OrderedDict[tuple, tuple[tuple, QueryResult]] = OrderedDict()
        self._sessions = 0

    # -- wiring -----------------------------------------------------------

    def bind(
        self,
        transport: Transport,
        sites: Sequence[int],
        replicas: Mapping[int, Sequence[int]] | None = None,
        read_preference: str = "any",
    ) -> None:
        """Attach to the federation's transport and site list.

        ``replicas`` maps a primary site to the synthetic site ids of
        its read replicas. ``read_preference`` picks the endpoints the
        per-tag ring routes over: ``"any"`` spreads reads across the
        primary and its replicas, ``"replica"`` keeps query load off
        primaries entirely (sites without replicas still serve their
        own reads).
        """
        if read_preference not in ("any", "replica"):
            raise ValueError(f"unknown read preference {read_preference!r}")
        self._transport = transport
        self._sites = list(sites)
        self._rings = {}
        for site, endpoints in (replicas or {}).items():
            endpoints = list(endpoints)
            if not endpoints:
                continue
            pool = endpoints if read_preference == "replica" else [site] + endpoints
            self._rings[site] = HashRing(pool)
        transport.register(self.site_id, self.handle)

    def note_append(self, site: int, boundary: int) -> None:
        """New rows landed in ``site``'s archive up to ``boundary``.

        Advancing the epoch vector invalidates every cached result that
        was formed against the older vector (checked lazily on lookup).
        """
        with self._lock:
            if boundary > self._epochs.get(site, -1):
                self._epochs[site] = boundary

    def handle(self, env: Envelope) -> None:
        """Receive one ``history-response`` envelope.

        Anything else — a misrouted request, an unknown kind, a
        malformed payload — is dropped and counted, never raised: with
        several frontends and replicas on one transport a stray
        envelope must not kill an unrelated in-flight gather.
        """
        if env.kind != HISTORY_RESPONSE:
            with self._lock:
                self.stats.dropped += 1
            return
        try:
            response = decode_history_response(env.payload)
        except ValueError:
            with self._lock:
                self.stats.dropped += 1
            return
        with self._lock:
            if response.as_of > self._epochs.get(response.site, -1):
                self._epochs[response.site] = response.as_of
            pending = self._responses.get(response.request_id)
            if pending is not None and response.site not in pending:
                pending[response.site] = response

    def session(self, name: str | None = None, tenant: str | None = None) -> "ServingSession":
        """Open a client session handle (optionally bound to a tenant)."""
        with self._lock:
            self._sessions += 1
            label = name if name is not None else f"session-{self._sessions}"
        return ServingSession(self, label, tenant=tenant)

    def set_tenant_policy(self, tenant: str, policy: TenantPolicy) -> None:
        """Install (or replace) one tenant's admission limits."""
        with self._lock:
            self._tenants[tenant] = policy

    # -- execution --------------------------------------------------------

    def _require_transport(self) -> Transport:
        if self._transport is None:
            raise RuntimeError("frontend is not bound to a transport")
        return self._transport

    @staticmethod
    def _cache_key(request: HistoryRequest) -> tuple:
        return (request.kind, request.tag, request.t0, request.t1, request.k, request.name)

    def _epoch_vector(self) -> tuple:
        return tuple(sorted(self._epochs.items()))

    def _endpoint_for(self, site: int, request: HistoryRequest) -> int:
        """The archive endpoint (primary or replica) serving this query.

        Two-choice balanced: the query's tag hashes to its two ring
        owners and the one that has served fewer requests wins — per-tag
        reads stay concentrated on at most two endpoints (archive pages
        stay warm) while a skewed tag population cannot pile its whole
        load onto one replica.
        """
        ring = self._rings.get(site)
        if ring is None:
            return site
        key = request.tag if request.tag is not None else request.name
        choices = ring.owners(f"{site}|{key}", 2)
        sent = self._endpoint_sent
        endpoint = min(choices, key=lambda choice: (sent.get(choice, 0), choice))
        sent[endpoint] = sent.get(endpoint, 0) + 1
        return endpoint

    def _admit_locked(self, tenant: str | None, count: int) -> None:
        """Reserve ``count`` in-flight slots or raise :class:`Backpressure`.

        Caller holds the lock and has already counted the queries.
        """
        policy = self._tenants.get(tenant) if tenant is not None else None
        limit = self.max_in_flight
        if policy is not None and policy.priority < 0:
            # Background tenants only get the bottom half of the queue.
            limit = max(1, self.max_in_flight // 2)
        if self._in_flight + count > limit:
            self.stats.rejected += count
            raise Backpressure(
                f"{self._in_flight} queries in flight (limit {limit}"
                f"{' for background tenants' if limit != self.max_in_flight else ''}"
                "); drain before submitting more"
            )
        if policy is not None and policy.quota is not None:
            held = self._tenant_in_flight.get(tenant, 0)
            if held + count > policy.quota:
                self.stats.rejected += count
                raise Backpressure(
                    f"tenant {tenant!r} holds {held} queries (quota {policy.quota})"
                )
        self._in_flight += count
        if tenant is not None:
            self._tenant_in_flight[tenant] = self._tenant_in_flight.get(tenant, 0) + count

    def _release_locked(self, tenant: str | None, count: int) -> None:
        self._in_flight -= count
        if tenant is not None:
            held = self._tenant_in_flight.get(tenant, 0) - count
            if held > 0:
                self._tenant_in_flight[tenant] = held
            else:
                self._tenant_in_flight.pop(tenant, None)

    def _fill_cache_locked(
        self,
        key: tuple,
        admitted_epochs: tuple,
        responses: dict[int, HistoryResponse],
        result: QueryResult,
    ) -> None:
        """Insert a merged result, tagged so staleness is never masked.

        The tag starts from the epoch vector at admission (an append
        landing mid-gather leaves the entry born stale) and is lowered
        to any *older* ``as_of`` a response carried (a lagging replica
        cannot produce an entry that pretends to be fresh).
        """
        admitted = dict(admitted_epochs)
        for site, response in responses.items():
            if response.as_of < admitted.get(site, response.as_of):
                admitted[site] = response.as_of
        self._cache[key] = (tuple(sorted(admitted.items())), result)
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)

    def execute(self, request: HistoryRequest, tenant: str | None = None) -> QueryResult:
        """Admit, serve-from-cache or scatter-gather, merge, cache."""
        return self._execute(request, tenant)[0]

    def _execute(
        self, request: HistoryRequest, tenant: str | None = None
    ) -> tuple[QueryResult, bool]:
        """:meth:`execute` plus whether the cache served it (for
        per-session hit accounting, decided under the frontend lock)."""
        key = self._cache_key(request)
        with self._lock:
            self.stats.queries += 1
            entry = self._cache.get(key)
            if entry is not None and entry[0] == self._epoch_vector():
                self._cache.move_to_end(key)
                self.stats.cache_hits += 1
                return entry[1], True
            self._admit_locked(tenant, 1)
            request_id = self._next_request_id
            self._next_request_id += 1
            self._responses[request_id] = {}
            # Tag the eventual entry with the epoch vector as of
            # admission: an append that lands while the gather is in
            # flight advances the live vector past this one, so the
            # entry is born stale instead of masking the new rows.
            admitted_epochs = self._epoch_vector()
        try:
            responses = self._gather(request_id, request)
            result = self._merge(request.kind, responses)
            with self._lock:
                self._fill_cache_locked(key, admitted_epochs, responses, result)
            return result, False
        finally:
            with self._lock:
                self._release_locked(tenant, 1)
                self._responses.pop(request_id, None)

    def execute_many(
        self, requests: Sequence[HistoryRequest], tenant: str | None = None
    ) -> list[QueryResult]:
        """Execute a batch: admit all, scatter all, then flush.

        Cache hits are served first; the remaining misses are admitted
        **atomically** (the whole batch fits under the in-flight limits
        or :class:`Backpressure` is raised and nothing is sent) and
        their requests all go out before the first transport flush —
        on a parallel transport every archive endpoint works its share
        of the batch concurrently, which is where replica scaling comes
        from. Results come back in request order.
        """
        requests = list(requests)
        results: list[QueryResult | None] = [None] * len(requests)
        misses: list[tuple[int, tuple, int]] = []  # (index, key, request_id)
        with self._lock:
            self.stats.queries += len(requests)
            live = self._epoch_vector()
            miss_indices = []
            for index, request in enumerate(requests):
                key = self._cache_key(request)
                entry = self._cache.get(key)
                if entry is not None and entry[0] == live:
                    self._cache.move_to_end(key)
                    self.stats.cache_hits += 1
                    results[index] = entry[1]
                else:
                    miss_indices.append((index, key))
            if not miss_indices:
                return results
            self._admit_locked(tenant, len(miss_indices))
            admitted_epochs = live
            for index, key in miss_indices:
                request_id = self._next_request_id
                self._next_request_id += 1
                self._responses[request_id] = {}
                misses.append((index, key, request_id))
        try:
            gathered = self._gather_many(
                [(request_id, requests[index]) for index, _, request_id in misses]
            )
            with self._lock:
                for (index, key, request_id) in misses:
                    responses = gathered[request_id]
                    result = self._merge(requests[index].kind, responses)
                    results[index] = result
                    self._fill_cache_locked(key, admitted_epochs, responses, result)
            return results
        finally:
            with self._lock:
                self._release_locked(tenant, len(misses))
                for _, _, request_id in misses:
                    self._responses.pop(request_id, None)

    # -- scatter-gather ----------------------------------------------------

    def _scatter_one(
        self, request_id: int, request: HistoryRequest
    ) -> tuple[bytes, dict[int, int]]:
        """Send one request to every site's chosen endpoint."""
        transport = self._require_transport()
        payload = encode_history_request(request._replace(request_id=request_id))
        targets = {site: self._endpoint_for(site, request) for site in self._sites}
        for endpoint in targets.values():
            transport.send(
                Envelope(self.site_id, endpoint, HISTORY_REQUEST, payload, request.t0)
            )
        return payload, targets

    def _gather(
        self, request_id: int, request: HistoryRequest
    ) -> dict[int, HistoryResponse]:
        gathered = self._gather_many([(request_id, request)])
        return gathered[request_id]

    def _gather_many(
        self, batch: Sequence[tuple[int, HistoryRequest]]
    ) -> dict[int, dict[int, HistoryResponse]]:
        """Scatter a batch, then flush/retransmit until all answered.

        Responses are keyed by *primary* site id whichever endpoint
        answered. A replica endpoint silent for ``_FAILOVER_ROUNDS``
        has its retransmits redirected to the primary, so a dead
        replica degrades to primary reads instead of stalling.

        Retransmits back off exponentially per (request, site) —
        rounds 0, 1, 3, 7, ... capped at :attr:`BACKOFF_CAP` apart —
        so a site that stays dead through the round limit draws
        O(log MAX_ROUNDS) retransmits, not one per round.
        """
        tel = get_telemetry()
        with tel.span("serving", "gather", requests=len(batch)) as gather_span:
            return self._gather_rounds(batch, gather_span)

    def _gather_rounds(
        self,
        batch: Sequence[tuple[int, HistoryRequest]],
        gather_span,
    ) -> dict[int, dict[int, HistoryResponse]]:
        transport = self._require_transport()
        pending: dict[int, tuple[bytes, dict[int, int], HistoryRequest]] = {}
        with self._lock:
            self.stats.remote_requests += len(batch) * len(self._sites)
        for request_id, request in batch:
            payload, targets = self._scatter_one(request_id, request)
            pending[request_id] = (payload, targets, request)
        #: (request_id, site) -> (next retransmit round, current delay).
        backoff: dict[tuple[int, int], tuple[int, int]] = {}
        out: dict[int, dict[int, HistoryResponse]] = {}
        for round_index in range(self.MAX_ROUNDS):
            transport.flush()
            retransmit: list[tuple[int, bytes, int, int]] = []
            with self._lock:
                for request_id in list(pending):
                    payload, targets, request = pending[request_id]
                    arrived = self._responses[request_id]
                    missing = [site for site in targets if site not in arrived]
                    if not missing:
                        out[request_id] = dict(arrived)
                        del pending[request_id]
                        gather_span.set(rounds=round_index + 1)
                        continue
                    for site in missing:
                        next_round, delay = backoff.get((request_id, site), (0, 1))
                        if round_index < next_round:
                            continue
                        backoff[(request_id, site)] = (
                            round_index + delay,
                            min(2 * delay, self.BACKOFF_CAP),
                        )
                        if round_index >= _FAILOVER_ROUNDS:
                            targets[site] = site
                        self.stats.retransmits += 1
                        retransmit.append((request_id, payload, site, targets[site]))
            if not pending:
                return out
            if retransmit:
                ledger = getattr(transport, "ledger", None)
                if ledger is not None:
                    ledger.frontend_retransmits += len(retransmit)
            for request_id, payload, site, endpoint in retransmit:
                _, _, request = pending[request_id]
                transport.send(
                    Envelope(self.site_id, endpoint, HISTORY_REQUEST, payload, request.t0)
                )
        unanswered = sorted(pending)
        raise RuntimeError(
            f"requests {unanswered} still missing responses after "
            f"{self.MAX_ROUNDS} rounds"
        )

    @staticmethod
    def _merge(kind: str, responses: dict[int, HistoryResponse]) -> QueryResult:
        if kind in _POINT_KINDS:
            best: HistoryResponse | None = None
            for site in sorted(responses):
                response = responses[site]
                if not response.rows:
                    continue
                if best is None or response.last_update > best.last_update:
                    best = response
            if best is None:
                return QueryResult(kind, None, ())
            return QueryResult(kind, best.site, best.rows)
        pooled = [
            (site,) + row
            for site in sorted(responses)
            for row in responses[site].rows
        ]
        if kind == "trajectory":
            pooled.sort(key=lambda row: (row[1], row[0], row[2], row[3]))
        else:
            pooled.sort()
        return QueryResult(kind, None, tuple(pooled))


@dataclass
class ServingSession:
    """One client's handle onto the frontend.

    Point methods execute immediately; :meth:`submit`/:meth:`gather`
    batch queries (each still individually admission-controlled, so a
    burst beyond ``max_in_flight`` raises :class:`Backpressure`). A
    ``tenant`` ties the session to its admission policy.
    """

    frontend: QueryFrontend
    name: str
    tenant: str | None = None
    stats: ServingStats = field(default_factory=ServingStats)
    _pending: list[HistoryRequest] = field(default_factory=list)

    def _run(self, request: HistoryRequest) -> QueryResult:
        self.stats.queries += 1
        try:
            result, hit = self.frontend._execute(request, self.tenant)
        except Backpressure:
            self.stats.rejected += 1
            raise
        if hit:
            self.stats.cache_hits += 1
        return result

    # -- the historical-query API ----------------------------------------

    def location(self, tag: EPC, time: int, k: int = 1) -> QueryResult:
        return self._run(HistoryRequest(0, "location", tag, time, k=k))

    def containment(self, tag: EPC, time: int, k: int = 1) -> QueryResult:
        return self._run(HistoryRequest(0, "containment", tag, time, k=k))

    def trajectory(self, tag: EPC, lo: int, hi: int = -1) -> QueryResult:
        return self._run(HistoryRequest(0, "trajectory", tag, lo, hi))

    def provenance(self, tag: EPC, time: int) -> QueryResult:
        return self._run(HistoryRequest(0, "provenance", tag, time))

    def dwell(self, tag: EPC, lo: int, hi: int = -1) -> QueryResult:
        return self._run(HistoryRequest(0, "dwell", tag, lo, hi))

    def alerts(self, name: str = "", lo: int = 0, hi: int = -1) -> QueryResult:
        return self._run(HistoryRequest(0, "alerts", None, lo, hi, name=name))

    # -- batched submission ----------------------------------------------

    def submit(self, request: HistoryRequest) -> int:
        """Queue a query; returns its ticket index for :meth:`gather`.

        A rejected submission is still a query: both the session's and
        the frontend's ``queries`` counters advance along with
        ``rejected``, so rejection rates agree at every level.
        """
        if len(self._pending) >= self.frontend.max_in_flight:
            self.stats.queries += 1
            self.stats.rejected += 1
            with self.frontend._lock:
                self.frontend.stats.queries += 1
                self.frontend.stats.rejected += 1
            raise Backpressure(
                f"session {self.name!r} already holds "
                f"{len(self._pending)} pending queries"
            )
        self._pending.append(request)
        return len(self._pending) - 1

    def gather(self) -> list[QueryResult]:
        """Execute every pending query, in submission order."""
        pending, self._pending = self._pending, []
        return [self._run(request) for request in pending]
