"""Process-parallel shared-nothing federation: the :class:`ProcessTransport`.

The GIL caps :class:`~repro.runtime.transport.ThreadedTransport` at one
core no matter how many sites the federation has. This transport runs
the inference hot path on real OS processes instead: N **workers**
(forked ``multiprocessing`` processes) each host a shard of the logical
sites, and the parent process stays the single deterministic router,
ledger owner, and fault-injection point.

Design, in one paragraph: the parent forks its workers *lazily* on the
first parallel tick, after every site, query factory, sensor stream,
and op table has been registered — so lambdas, traces, and closures
cross by fork inheritance and nothing of the sort is ever pickled.
Each worker executes **named operations** against its hosted
:class:`~repro.runtime.node.SiteNode`\\ s (``site_call`` is a
synchronous RPC, ``site_cast`` an asynchronous one; the concurrent
casts of ``advance_to`` are where the parallel speedup comes from).
Envelopes a node sends inside a worker are buffered in a per-worker
outbox shim and surface to the parent with the op's reply; the parent
pushes each through its :attr:`ProcessTransport.egress` hook — by
default ledger accounting + routing, and
:class:`~repro.runtime.faults.FaultyTransport` repoints the hook at its
own fault injector, so the chaos harness drives worker-origin traffic
exactly as it drives in-process traffic. Control frames are pickled;
**bulk payloads are not**: any ``bytes`` blob at or above
:data:`SHM_THRESHOLD` — batched migration bundles, site checkpoints,
archive segments — crosses the process boundary as a raw block in a
:mod:`multiprocessing.shared_memory` segment, with zero re-encoding
through the envelope/archive codecs (one memcpy in, one out).

**Site sharding and rebalancing.** Many logical sites map onto few
workers through a shard map. Every worker inherits *all* node objects
at fork time but only drives its own shard; :meth:`move_site` reassigns
a site by pulling its checkpoint (the existing
:mod:`~repro.runtime.checkpoint` wire format — no new state protocol),
dropping it on the old worker, and restoring it onto the dormant
replica in the new worker. :meth:`maybe_rebalance` applies that move
between intervals using the ledger's per-link byte counters as the load
signal; because checkpoint/restore is bit-exact, a rebalance is
invisible to every observable result.

**Determinism contract.** Command pipes are FIFO per worker and the
parent drains replies worker-by-worker in index order, so every
envelope's per-link order is a pure function of the cluster's phase
schedule — the property the fault plans and the chaos harness's
bit-identity invariant rest on. Parallelism only ever reorders work
*between* barriers, which the runtime already tolerates.
"""

from __future__ import annotations

import os
import time
import traceback
from collections import deque
from dataclasses import replace
from multiprocessing import get_context, resource_tracker, shared_memory
from typing import Callable, Mapping

from repro.distributed.network import Network
from repro.obs import get_telemetry
from repro.obs.recorder import FlightRecorder
from repro.runtime.checkpoint import peek_checkpoint_site
from repro.runtime.envelope import Envelope
from repro.runtime.transport import Handler, Transport

__all__ = ["ProcessTransport", "WorkerDied", "SHM_THRESHOLD"]


class WorkerDied(RuntimeError):
    """A shard worker process exited (or stopped replying) mid-command.

    Names the worker, the oldest in-flight operation, *and* the dead
    worker's flight-recorder tail (the last commands the parent routed
    to it, plus any telemetry entries it shipped at the last barrier),
    so a crash in a 16-worker federation points at the actual victim —
    with its recent history — instead of leaving the parent blocked
    forever on a pipe read.
    """

    #: how many flight-recorder entries ride on the exception message.
    TAIL = 16

    def __init__(
        self, worker: int, op: str, reason: str, tail: list[dict] | None = None
    ) -> None:
        self.worker = worker
        self.op = op
        self.tail = list(tail or [])[-self.TAIL :]
        message = f"shard worker {worker} died with {op!r} in flight: {reason}"
        if self.tail:
            lines = "\n".join(f"  {self._entry_line(e)}" for e in self.tail)
            message += (
                f"\nflight recorder (last {len(self.tail)} entries for "
                f"worker {worker}):\n{lines}"
            )
        super().__init__(message)

    @staticmethod
    def _entry_line(entry: dict) -> str:
        kind = entry.get("type", "?")
        name = entry.get("name", entry.get("op", "?"))
        extras = ", ".join(
            f"{k}={entry[k]}"
            for k in ("plane", "op", "site", "boundary", "seq")
            if k in entry and k != "op"
        )
        return f"[{kind}] {name}" + (f" ({extras})" if extras else "")

#: payload size (bytes) at which a blob rides a shared-memory segment
#: instead of the pickled control frame.
SHM_THRESHOLD = 64 * 1024


# -- the shared-memory blob plane -----------------------------------------


class _ShmRef:
    """Wire marker for a payload parked in a shared-memory segment."""

    __slots__ = ("name", "size")

    def __init__(self, name: str, size: int) -> None:
        self.name = name
        self.size = size

    def __reduce__(self):
        return (_ShmRef, (self.name, self.size))


def _untrack(seg: shared_memory.SharedMemory) -> None:
    """Detach ``seg`` from this process's resource tracker.

    Ownership is explicit here — the receiver unlinks after reading —
    so the tracker must not also try to unlink it at interpreter exit
    (double-unlink warnings, or worse, reaping a segment the peer has
    not read yet)."""
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary
        pass


def _park_blob(data: bytes) -> _ShmRef:
    seg = shared_memory.SharedMemory(create=True, size=max(len(data), 1))
    seg.buf[: len(data)] = data
    ref = _ShmRef(seg.name, len(data))
    seg.close()
    _untrack(seg)
    return ref


def _claim_blob(ref: _ShmRef) -> bytes:
    # Attaching does not register with the tracker (and the creator
    # already unregistered), so no _untrack here — a second unregister
    # would make the tracker process log a KeyError at message time.
    seg = shared_memory.SharedMemory(name=ref.name)
    data = bytes(seg.buf[: ref.size])
    seg.close()
    try:
        seg.unlink()
    except FileNotFoundError:  # pragma: no cover - already reaped
        pass
    return data


def _pack_value(value: object) -> object:
    if isinstance(value, bytes) and len(value) >= SHM_THRESHOLD:
        return _park_blob(value)
    return value


def _unpack_value(value: object) -> object:
    if isinstance(value, _ShmRef):
        return _claim_blob(value)
    return value


def _pack_env(env: Envelope) -> Envelope:
    if len(env.payload) >= SHM_THRESHOLD:
        return replace(env, payload=_park_blob(env.payload))
    return env


def _unpack_env(env: Envelope) -> Envelope:
    if isinstance(env.payload, _ShmRef):
        return replace(env, payload=_claim_blob(env.payload))
    return env


class _Channel:
    """One side of a worker pipe: pickled control frames, shm blobs.

    Only the blob-bearing slots of each frame shape are transformed —
    op arguments, op results, envelope payloads — so small frames stay
    a single pickle with no segment round-trip."""

    def __init__(self, conn) -> None:
        self._conn = conn

    def send(self, msg: tuple) -> None:
        kind = msg[0]
        if kind in ("call", "cast"):
            _, site, op, args = msg
            msg = (kind, site, op, tuple(_pack_value(a) for a in args))
        elif kind == "deliver":
            msg = (kind, _pack_env(msg[1]))
        elif kind == "adopt":
            msg = (kind, msg[1], _pack_value(msg[2]))
        elif kind == "ret":
            _, ck, result, outbox, err = msg
            msg = (kind, ck, _pack_value(result), [_pack_env(e) for e in outbox], err)
        self._conn.send(msg)

    def recv(self) -> tuple:
        msg = self._conn.recv()
        kind = msg[0]
        if kind in ("call", "cast"):
            _, site, op, args = msg
            return (kind, site, op, tuple(_unpack_value(a) for a in args))
        if kind == "deliver":
            return (kind, _unpack_env(msg[1]))
        if kind == "adopt":
            return (kind, msg[1], _unpack_value(msg[2]))
        if kind == "ret":
            _, ck, result, outbox, err = msg
            return (kind, ck, _unpack_value(result), [_unpack_env(e) for e in outbox], err)
        return msg

    def poll(self, timeout: float = 0) -> bool:
        return self._conn.poll(timeout)

    def close(self) -> None:
        self._conn.close()


# -- worker side -----------------------------------------------------------


class _WorkerShim:
    """What a hosted node sees as its transport inside a worker.

    Sends are buffered, not delivered: they surface to the parent with
    the current op's reply and go through the parent's egress hook
    (ledger accounting, routing, fault injection). ``reliable`` mirrors
    the *outermost* parent transport so the node's at-least-once layer
    behaves identically on both sides of the fork. No ledger attribute
    on purpose: a worker touching the ledger would silently diverge
    from the parent's accounting, and should crash instead."""

    def __init__(self, reliable: bool) -> None:
        self.reliable = reliable
        self.outbox: list[Envelope] = []

    def send(self, env: Envelope) -> None:
        self.outbox.append(env)

    def flush(self) -> None:  # a worker never barriers; the parent does
        pass

    def drain(self) -> list[Envelope]:
        out, self.outbox = self.outbox, []
        return out


class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("process", "channel", "pending", "inflight")

    def __init__(self, process, channel: _Channel) -> None:
        self.process = process
        self.channel = channel
        self.pending = 0  # commands sent but not yet replied
        #: FIFO descriptions of the pending commands, for diagnostics.
        self.inflight: deque[str] = deque()


class ProcessTransport(Transport):
    """Per-worker OS processes hosting shards of logical sites."""

    hosts_sites = True

    #: auto-rebalance fires when the busiest worker's traffic delta
    #: exceeds ``ratio``× the idlest worker's (plus a noise floor).
    REBALANCE_RATIO = 2.0
    REBALANCE_MIN_BYTES = 4096

    def __init__(
        self,
        n_workers: int = 2,
        ledger: Network | None = None,
        shard_map: Mapping[int, int] | None = None,
        rebalance: bool = True,
        scheduled_moves: Mapping[int, tuple[int, int]] | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        super().__init__(ledger)
        self.n_workers = n_workers
        self.rebalance = rebalance
        #: deterministic move overrides: boundary index (1-based count of
        #: :meth:`maybe_rebalance` calls) -> (site, target worker). Used
        #: by tests/experiments to force a mid-run shard move.
        self.scheduled_moves = dict(scheduled_moves or {})
        self._explicit_shard = dict(shard_map) if shard_map is not None else None
        self._handlers: dict[int, Handler] = {}
        self._site_ops: dict[int, dict[str, Callable]] = {}
        #: site -> worker index (parent-side routing truth).
        self._shard: dict[int, int] = {}
        self._workers: list[_WorkerHandle] = []
        self._started = False
        self._closed = False
        self._in_worker: int | None = None
        self._call_results: list[object] = []
        self._boundaries = 0
        self._last_loads: dict[int, int] = {}
        #: where worker-origin envelopes enter the parent. Default:
        #: account + route. FaultyTransport repoints this at its own
        #: ``send`` so injection covers worker traffic.
        self.egress: Callable[[Envelope], None] = self._default_egress
        #: reliability advertised to worker-side nodes; a lossy wrapper
        #: sets this to False before the fork.
        self.outer_reliable = True
        #: always-on parent-side flight recorder: the recent commands
        #: routed to each worker (plus telemetry entries workers shipped
        #: at the last quiescence). Cheap — one small dict per command —
        #: and what :class:`WorkerDied` quotes as the victim's tail.
        self.flight = FlightRecorder(capacity=512)

    # -- registration -------------------------------------------------------

    def register(self, site: int, handler: Handler) -> None:
        # Registration stays open after the fork: a late handler (e.g. a
        # serving frontend's synthetic site) is parent-resident by
        # construction — only *hosting* must happen before the fork.
        if self._closed:
            raise RuntimeError("transport is closed")
        if site in self._handlers:
            raise ValueError(f"site {site} already registered")
        self._handlers[site] = handler

    def host_site(self, site: int, ops: Mapping[str, Callable]) -> None:
        if self._started:
            raise RuntimeError("cannot host sites after workers have forked")
        if site not in self._handlers:
            raise ValueError(f"site {site} has no registered handler")
        self._site_ops[site] = dict(ops)

    # -- lazy fork ----------------------------------------------------------

    def _ensure_started(self) -> None:
        if self._started or self._closed:
            return
        self._started = True
        sites = sorted(self._site_ops)
        if not sites:
            return  # nothing to host; stays a synchronous parent-only transport
        n = min(self.n_workers, len(sites))
        if self._explicit_shard is not None:
            missing = set(sites) - set(self._explicit_shard)
            if missing:
                raise ValueError(f"shard_map missing sites {sorted(missing)}")
            bad = {s: w for s, w in self._explicit_shard.items() if not 0 <= w < n}
            if bad:
                raise ValueError(f"shard_map worker out of range: {bad}")
            self._shard = {s: self._explicit_shard[s] for s in sites}
        else:
            self._shard = {s: i % n for i, s in enumerate(sites)}
        ctx = get_context("fork")
        for w in range(n):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=self._worker_main,
                args=(w, child_conn),
                name=f"shard-{w}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._workers.append(_WorkerHandle(process, _Channel(parent_conn)))
        self._note_shard_gauges()

    def _note_shard_gauges(self) -> None:
        counts = {w: 0 for w in range(len(self._workers))}
        for worker in self._shard.values():
            counts[worker] += 1
        self.ledger.shard_sites = counts

    # -- worker main loop ---------------------------------------------------

    def _worker_main(self, index: int, conn) -> None:
        channel = _Channel(conn)
        shim = _WorkerShim(self.outer_reliable)
        # The fork copies the parent's telemetry buffers; discard them
        # or the first delta pull would re-ship (double-count) every
        # pre-fork parent entry. The span ids move to this process's
        # own namespace so they cannot collide with the parent's or a
        # sibling worker's.
        fork_tel = get_telemetry()
        if fork_tel.enabled:
            fork_tel.registry.drain()
            fork_tel.recorder.drain()
            fork_tel.tracer.fork(os.getpid())
        hosted = {s for s, w in self._shard.items() if w == index}
        for site in hosted:
            self._site_ops[site]["attach"](shim)
        stats = {
            "worker": index,
            "busy_cpu_seconds": 0.0,
            "busy_wall_seconds": 0.0,
            "commands": 0,
            "envelopes_out": 0,
        }
        while True:
            try:
                msg = channel.recv()
            except EOFError:
                return
            kind = msg[0]
            if kind == "stop":
                return
            cpu0, wall0 = time.process_time(), time.perf_counter()
            result, err = None, None
            try:
                if kind in ("call", "cast"):
                    _, site, op, args = msg
                    if site not in hosted:
                        raise RuntimeError(
                            f"worker {index} does not host site {site}"
                        )
                    result = self._site_ops[site][op](*args)
                elif kind == "deliver":
                    env = msg[1]
                    if env.dst not in hosted:
                        raise RuntimeError(
                            f"worker {index} got envelope for unhosted site {env.dst}"
                        )
                    self._handlers[env.dst](env)
                elif kind == "adopt":
                    _, site, blob = msg
                    ops = self._site_ops[site]
                    ops["attach"](shim)
                    ops["reset_fresh"]()
                    ops["restore"](blob)
                    hosted.add(site)
                elif kind == "drop":
                    hosted.discard(msg[1])
                elif kind == "stats":
                    result = dict(stats, hosted_sites=sorted(hosted))
                elif kind == "telemetry":
                    # Out-of-band telemetry delta: the worker's registry
                    # and flight-recorder contents since the last pull.
                    # Only ever requested by the parent at barrier
                    # quiescence with telemetry enabled, so it never
                    # interleaves with data ops.
                    tel = get_telemetry()
                    if tel.enabled:
                        result = (tel.registry.drain(), tel.recorder.drain())
                    else:
                        result = ({}, [])
                else:  # pragma: no cover - protocol bug
                    raise RuntimeError(f"unknown command {kind!r}")
            except BaseException:
                err = traceback.format_exc()
            stats["busy_cpu_seconds"] += time.process_time() - cpu0
            stats["busy_wall_seconds"] += time.perf_counter() - wall0
            stats["commands"] += 1
            outbox = shim.drain()
            stats["envelopes_out"] += len(outbox)
            reply_kind = "call" if kind in ("call", "stats", "telemetry") else kind
            try:
                channel.send(("ret", reply_kind, result, outbox, err))
            except BrokenPipeError:  # pragma: no cover - parent went away
                return

    # -- parent-side command plumbing ---------------------------------------

    @staticmethod
    def _describe_cmd(msg: tuple) -> str:
        kind = msg[0]
        if kind in ("call", "cast"):
            return f"{kind} {msg[2]}@site{msg[1]}"
        if kind == "deliver":
            env = msg[1]
            return f"deliver {env.kind}@site{env.dst}"
        return kind

    def _send_cmd(self, w: int, msg: tuple) -> None:
        handle = self._workers[w]
        # Opportunistically drain ready replies first: keeps the pipes
        # from filling up (and deadlocking) under envelope-heavy
        # barriers without changing any per-link ordering — replies are
        # consumed FIFO per worker either way.
        while handle.pending and handle.channel.poll():
            self._pump(w)
        handle.pending += 1
        desc = self._describe_cmd(msg)
        handle.inflight.append(desc)
        self.flight.record(
            {"type": "state", "plane": "process", "name": "cmd", "worker": w, "op": desc}
        )
        handle.channel.send(msg)

    #: how often the reply wait re-checks worker liveness (seconds).
    PUMP_POLL = 0.05
    #: optional wall-clock bound on one reply; ``None`` disables it (a
    #: legitimately long op — a huge inference tick — must not be killed
    #: by an arbitrary timer; *dead* workers are caught by the liveness
    #: poll within :attr:`PUMP_POLL` regardless).
    PUMP_TIMEOUT: float | None = None

    def _pump(self, w: int) -> None:
        """Receive and process exactly one reply from worker ``w``.

        The wait is a liveness-checking poll, not a blocking read: a
        worker that died mid-command raises :class:`WorkerDied` naming
        the worker and the oldest in-flight op, instead of leaving the
        parent blocked on the pipe forever.
        """
        handle = self._workers[w]
        op = handle.inflight[0] if handle.inflight else "<unknown op>"
        waited = 0.0
        while not handle.channel.poll(self.PUMP_POLL):
            if not handle.process.is_alive():
                # One final poll: the reply may have been written just
                # before the process exited (e.g. a clean "stop" race).
                if handle.channel.poll():
                    break
                raise self._worker_died(
                    w, op,
                    f"process exited with code {handle.process.exitcode}",
                )
            waited += self.PUMP_POLL
            if self.PUMP_TIMEOUT is not None and waited >= self.PUMP_TIMEOUT:
                raise self._worker_died(w, op, f"no reply within {waited:.1f}s")
        try:
            reply = handle.channel.recv()
        except EOFError:
            raise self._worker_died(w, op, "pipe closed mid-reply") from None
        handle.pending -= 1
        if handle.inflight:
            handle.inflight.popleft()
        _, kind, result, outbox, err = reply
        if err is not None:
            raise RuntimeError(f"shard worker {w} op failed:\n{err}")
        for env in outbox:
            worker = self._shard.get(env.src)
            if worker is not None:
                self.ledger.shard_bytes_out[worker] += len(env.payload)
            self.egress(env)
        if kind == "call":
            self._call_results.append(result)

    def _worker_died(self, w: int, op: str, reason: str) -> WorkerDied:
        """Build the fatal diagnosis: the dead worker's flight-recorder
        tail rides the exception, and — when telemetry is active with a
        dump directory — the full window is dumped to JSONL."""
        tail = self.flight.tail(WorkerDied.TAIL, worker=w)
        tel = get_telemetry()
        if tel.enabled:
            for entry in tail:
                tel.recorder.record(entry)
            tel.record_state("process", "worker.died", worker=w, op=op, reason=reason)
            if tel.dump_dir is not None:
                tel.dump(f"worker-died-{w}")
        return WorkerDied(w, op, reason, tail=tail)

    def _default_egress(self, env: Envelope) -> None:
        self.ledger.send(env.src, env.dst, env.kind, env.payload)
        self.deliver(env)

    # -- Transport interface ------------------------------------------------

    def send(self, env: Envelope) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")
        self.ledger.send(env.src, env.dst, env.kind, env.payload)
        self.deliver(env)

    def deliver(self, env: Envelope) -> None:
        if self._closed:
            raise RuntimeError("transport is closed")
        w = self._shard.get(env.dst) if self._started else None
        if w is not None:
            self.ledger.shard_bytes_in[w] += len(env.payload)
            self._send_cmd(w, ("deliver", env))
            return
        handler = self._handlers.get(env.dst)
        if handler is not None:
            handler(env)

    def dispatch(self, site: int, fn: Callable[[], None]) -> None:
        if self._started and site in self._shard:
            raise RuntimeError(
                "worker-hosted sites take named ops (site_cast), not closures"
            )
        fn()

    def site_call(self, site: int, op: str, *args: object) -> object:
        ops = self._site_ops.get(site)
        if ops is None:
            raise KeyError(f"site {site} is not hosted")
        if not self._started:
            # Pre-fork (all registration still open): run on the parent
            # objects — exactly the state the workers will inherit.
            return ops[op](*args)
        w = self._shard[site]
        self._send_cmd(w, ("call", site, op, args))
        while not self._call_results:
            self._pump(w)
        return self._call_results.pop()

    def site_cast(self, site: int, op: str, *args: object) -> None:
        if site not in self._site_ops:
            raise KeyError(f"site {site} is not hosted")
        self._ensure_started()
        if not self._workers:
            self._site_ops[site][op](*args)
            return
        self._send_cmd(self._shard[site], ("cast", site, op, args))

    def flush(self) -> None:
        while any(handle.pending for handle in self._workers):
            for w in range(len(self._workers)):
                while self._workers[w].pending:
                    self._pump(w)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for handle in self._workers:
            try:
                handle.channel.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for handle in self._workers:
            handle.process.join(timeout=5.0)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.terminate()
                handle.process.join(timeout=1.0)
            handle.channel.close()
        self._workers.clear()

    # -- sharding and rebalancing --------------------------------------------

    @property
    def shard_map(self) -> dict[int, int]:
        """Current site -> worker assignment (parent-side truth)."""
        return dict(self._shard)

    def move_site(self, site: int, target: int) -> None:
        """Reassign ``site`` to worker ``target`` via checkpoint/restore.

        Must be called at a quiescent barrier (the cluster calls
        :meth:`maybe_rebalance` between intervals, after its flush), so
        the site's unacked outbox is drained and no envelope for it is
        in flight."""
        self._ensure_started()
        if site not in self._shard:
            raise KeyError(f"site {site} is not hosted")
        if not 0 <= target < len(self._workers):
            raise ValueError(f"no worker {target}")
        source = self._shard[site]
        if target == source:
            return
        blob = self.site_call(site, "snapshot")
        if peek_checkpoint_site(blob) != site:
            raise RuntimeError(f"site {site} produced a foreign checkpoint")
        self.flush()
        self._send_cmd(source, ("drop", site))
        self._send_cmd(target, ("adopt", site, blob))
        self._shard[site] = target
        self.flush()
        self.ledger.rebalances += 1
        self._note_shard_gauges()

    def maybe_rebalance(self) -> bool:
        """One between-intervals rebalance step; returns True on a move.

        The load signal is each site's ledger byte traffic (in + out,
        per-link counters) since the previous step — a pure function of
        parent-side state, so the decision sequence is deterministic.
        ``scheduled_moves`` entries override the policy at their
        boundary index."""
        if not self._started or not self._workers:
            return False
        self._boundaries += 1
        forced = self.scheduled_moves.get(self._boundaries)
        if forced is not None:
            site, target = forced
            self.move_site(site, target)
            return True
        if not self.rebalance or len(self._workers) < 2:
            return False
        loads = dict.fromkeys(self._shard, 0)
        for (src, dst), nbytes in self.ledger.bytes_by_link.items():
            if src in loads:
                loads[src] += nbytes
            if dst in loads:
                loads[dst] += nbytes
        deltas = {s: loads[s] - self._last_loads.get(s, 0) for s in loads}
        self._last_loads = loads
        per_worker = [0] * len(self._workers)
        for s, w in self._shard.items():
            per_worker[w] += deltas[s]
        busiest = max(range(len(per_worker)), key=lambda w: (per_worker[w], -w))
        idlest = min(range(len(per_worker)), key=lambda w: (per_worker[w], w))
        own = sorted(s for s, w in self._shard.items() if w == busiest)
        if busiest == idlest or len(own) < 2:
            return False
        if per_worker[busiest] <= (
            self.REBALANCE_RATIO * per_worker[idlest] + self.REBALANCE_MIN_BYTES
        ):
            return False
        site = max(own, key=lambda s: (deltas[s], -s))
        self.move_site(site, idlest)
        return True

    # -- introspection --------------------------------------------------------

    def collect_telemetry(self, tel=None) -> int:
        """Pull each worker's telemetry delta over the pipe plane.

        Called by the cluster between intervals — at barrier quiescence,
        never mid-phase — and only when telemetry is enabled, so a
        telemetry-off run issues a byte-identical command stream to a
        build without this subsystem. Registry deltas merge into the
        parent registry; span/state entries land in the parent recorder
        (worker-stamped) and in the transport's own flight ring so a
        later :class:`WorkerDied` can quote them. Returns the number of
        entries absorbed.
        """
        tel = tel if tel is not None else get_telemetry()
        if not tel.enabled or not self._started or not self._workers:
            return 0
        absorbed = 0
        for w in range(len(self._workers)):
            self._send_cmd(w, ("telemetry",))
            while not self._call_results:
                self._pump(w)
            registry_delta, entries = self._call_results.pop()
            tel.registry.merge(registry_delta)
            for entry in entries:
                entry.setdefault("worker", w)
                tel.recorder.record(entry)
                self.flight.record(entry)
                absorbed += 1
        return absorbed

    def worker_stats(self) -> list[dict]:
        """Per-worker counters: busy CPU/wall seconds, commands,
        envelopes originated, hosted sites. Empty before the fork."""
        if not self._started or not self._workers:
            return []
        out = []
        for w in range(len(self._workers)):
            self._send_cmd(w, ("stats",))
            while not self._call_results:
                self._pump(w)
            out.append(self._call_results.pop())
        return out
