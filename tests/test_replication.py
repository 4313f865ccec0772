"""Segment replication: cursors, deltas, catch-up, byte-identity.

The replication contract (ISSUE 7 acceptance): after catch-up a
replica's archive is **bit-identical** to its primary —
``encode_archive(replica) == encode_archive(primary)`` — and stays so
across incremental growth, compaction (generation bump → full resync),
replica crash+rejoin, and seeded chaos transports that drop, duplicate,
delay, and reorder the replication envelopes themselves.
"""

import os
import random

import pytest

from repro.archive import (
    NO_CONTAINER,
    REPLICATION_VERSION,
    SiteArchive,
    decode_archive,
    encode_archive,
)
from repro.archive.replication import (
    ZERO_CURSOR,
    apply_archive_delta,
    cursor_of,
    decode_replica_fetch,
    encode_archive_delta,
    encode_replica_fetch,
)
from repro.runtime import FaultPlan, FaultyTransport, InProcessTransport
from repro.runtime.envelope import REPLICA_SEGMENTS, Envelope
from repro.serving import (
    ArchivePublisher,
    ArchiveReplica,
    REPLICA_SITE_BASE,
    replica_site_id,
)
from repro.sim.tags import EPC, TagKind

# CHAOS_SEED (CI matrix) replaces the built-in seeds, mirroring
# tests/test_fault_tolerance.py.
CHAOS_SEEDS = (
    [int(os.environ["CHAOS_SEED"])] if os.environ.get("CHAOS_SEED") else [11, 23, 47]
)


def build_archive(site: int = 0, tags: int = 5, boundaries: int = 4) -> SiteArchive:
    """A small synthetic archive touching every log kind."""
    archive = SiteArchive(site, seal_every=8)
    grow_archive(archive, 0, boundaries, tags=tags)
    return archive


def grow_archive(
    archive: SiteArchive, first: int, boundaries: int, tags: int = 5
) -> None:
    """Append ``boundaries`` more inference boundaries' worth of rows."""
    case = archive.intern_tag(EPC(TagKind.CASE, 900))
    name_id = archive.intern_key("q-test")
    for b in range(first, first + boundaries):
        time = b * 100
        for i in range(tags):
            tid = archive.intern_tag(EPC(TagKind.ITEM, i))
            place = (b + i) % 3
            archive.location.observe(tid, time, ((place, 1.0),), value_only=True)
            archive.containment.observe(tid, time, ((case, 0.9),), value_only=True)
            archive.belief.observe(tid, time, ((case, 0.8), (tid, 0.2)))
            archive.events.append(time, tid, place, case)
            if time > archive.last_event.get(tid, -1):
                archive.last_event[tid] = time
        key_id = archive.intern_key(f"alert-{b}")
        archive.alerts.append(name_id, key_id, time, time + 10, (float(b), 1.5))
        archive.alert_cursors["q-test"] = b + 1
        archive.last_boundary = time
    archive.seal()


def append_tail(archive: SiteArchive, rows: int) -> None:
    """Append ``rows`` same-width rows to the event and alert logs.

    Every call appends identical rows (and one location row per event
    after the first, toggling the tag's place), so two archives with
    tails of different lengths differ only in how many rows they hold.
    Nothing seals while the events log stays below ``seal_every``.
    """
    tag = archive.intern_tag(EPC(TagKind.ITEM, 1))
    name_id = archive.intern_key("q-tail")
    for _ in range(rows):
        place = archive.events.row_count() % 2
        archive.location.observe(tag, 50, ((place, 1.0),), value_only=True)
        archive.events.append(50, tag, place, NO_CONTAINER)
        archive.alerts.append(name_id, name_id, 50, 50, (1.0,))
    archive.last_event[tag] = 50
    archive.last_boundary = 50


class LossyLink:
    """A seeded link that drops, duplicates, delays and reorders everything.

    :class:`FaultyTransport` passes unsequenced envelopes through intact,
    and replica fetches and deltas are unsequenced, so the replica
    plane's own loss handling needs this fault source. ``flush`` delivers
    queued envelopes in random order; a delayed one waits for a later
    flush, i.e. a later catch-up round.
    """

    def __init__(self, seed: int, rate: float = 0.2) -> None:
        self.rng = random.Random(seed)
        self.rate = rate
        self.handlers = {}
        self.queue: list[Envelope] = []
        self.delayed: list[Envelope] = []
        self.injected = {"drop": 0, "duplicate": 0, "delay": 0}

    def register(self, site: int, handler) -> None:
        self.handlers[site] = handler

    def send(self, env: Envelope) -> None:
        if self.rng.random() < self.rate:
            self.injected["drop"] += 1
            return
        self.queue.append(env)
        if self.rng.random() < self.rate:
            self.injected["duplicate"] += 1
            self.queue.append(env)

    def flush(self) -> None:
        self.queue.extend(self.delayed)
        self.delayed = []
        while self.queue:
            env = self.queue.pop(self.rng.randrange(len(self.queue)))
            if self.rng.random() < self.rate:
                self.injected["delay"] += 1
                self.delayed.append(env)
            else:
                self.handlers[env.dst](env)


def assert_identical(replica: ArchiveReplica, primary: SiteArchive) -> None:
    assert encode_archive(replica.archive) == encode_archive(primary)


class TestDeltaCodec:
    def test_fetch_roundtrip(self):
        archive = build_archive()
        cursor = cursor_of(archive)
        fetch_id, decoded = decode_replica_fetch(encode_replica_fetch(7, cursor))
        assert fetch_id == 7
        assert decoded == cursor

    def test_full_delta_builds_identical_archive(self):
        primary = build_archive()
        delta = encode_archive_delta(primary, ZERO_CURSOR, fetch_id=1)
        rebuilt, fetch_id, full = apply_archive_delta(None, delta)
        assert fetch_id == 1 and full
        assert encode_archive(rebuilt) == encode_archive(primary)

    def test_incremental_delta_is_smaller_and_identical(self):
        primary = build_archive()
        replica, _, _ = apply_archive_delta(
            None, encode_archive_delta(primary, ZERO_CURSOR)
        )
        cursor = cursor_of(replica)
        grow_archive(primary, 4, 2)
        incremental = encode_archive_delta(primary, cursor)
        full = encode_archive_delta(primary, ZERO_CURSOR)
        assert len(incremental) < len(full)
        applied, _, was_full = apply_archive_delta(replica, incremental)
        assert applied is replica and not was_full
        assert encode_archive(replica) == encode_archive(primary)

    def test_duplicate_delta_raises_not_corrupts(self):
        primary = build_archive()
        replica, _, _ = apply_archive_delta(
            None, encode_archive_delta(primary, ZERO_CURSOR)
        )
        cursor = cursor_of(replica)
        grow_archive(primary, 4, 1)
        delta = encode_archive_delta(primary, cursor)
        apply_archive_delta(replica, delta)
        before = encode_archive(replica)
        with pytest.raises(ValueError, match="does not match"):
            apply_archive_delta(replica, delta)
        assert encode_archive(replica) == before  # rejected before mutation

    def test_malformed_delta_raises_valueerror(self):
        primary = build_archive()
        delta = encode_archive_delta(primary, ZERO_CURSOR)
        for mangled in (b"", b"\xff" * 8, delta[: len(delta) // 2]):
            with pytest.raises(ValueError):
                apply_archive_delta(None, mangled)
        with pytest.raises(ValueError):
            decode_replica_fetch(b"\x02junk")

    def test_compaction_forces_full_resync(self):
        primary = build_archive()
        replica, _, _ = apply_archive_delta(
            None, encode_archive_delta(primary, ZERO_CURSOR)
        )
        cursor = cursor_of(replica)
        primary.compact()
        delta = encode_archive_delta(primary, cursor)
        rebuilt, _, full = apply_archive_delta(replica, delta)
        assert full and rebuilt is not replica
        assert encode_archive(rebuilt) == encode_archive(primary)


class TestSuffixDeltas:
    """The mutable tail ships as a suffix of what the replica holds."""

    def test_delta_size_does_not_depend_on_the_held_tail(self):
        sizes = []
        for held in (10, 1000):
            primary = SiteArchive(0, seal_every=2048)
            append_tail(primary, held)
            replica, _, _ = apply_archive_delta(
                None, encode_archive_delta(primary, ZERO_CURSOR)
            )
            cursor = cursor_of(replica)
            assert cursor.segments == (0, 0, 0, 0, 0)
            assert cursor.pending[3] == held
            append_tail(primary, 7)
            delta = encode_archive_delta(primary, cursor)
            applied, _, full = apply_archive_delta(replica, delta)
            assert applied is replica and not full
            assert encode_archive(replica) == encode_archive(primary)
            sizes.append(len(delta))
        assert sizes[0] == sizes[1]

    def test_duplicated_suffix_delta_is_dropped_as_stale(self):
        transport = InProcessTransport()
        primary = SiteArchive(0, seal_every=2048)
        append_tail(primary, 10)
        ArchivePublisher(primary).bind(transport)
        replica = ArchiveReplica(0, replica_site_id(0, 0, 1))
        replica.bind(transport)
        replica.catch_up()
        append_tail(primary, 5)
        delta = encode_archive_delta(primary, cursor_of(replica.archive), fetch_id=9)
        envelope = Envelope(0, replica.site_id, REPLICA_SEGMENTS, delta, 0)
        replica.handle(envelope)
        replica.handle(envelope)
        assert replica.stats.stale_deltas == 1
        assert replica.stats.full_resyncs == 0
        assert len(replica.archive.events.pending) == len(primary.events.pending) == 15
        assert_identical(replica, primary)

    def test_crossing_seal_every_ships_the_new_segment(self):
        primary = SiteArchive(0, seal_every=8)
        append_tail(primary, 5)
        replica, _, _ = apply_archive_delta(
            None, encode_archive_delta(primary, ZERO_CURSOR)
        )
        cursor = cursor_of(replica)
        assert cursor.segments[3] == 0 and cursor.pending[3] == 5
        append_tail(primary, 6)  # 11 event rows: one sealed segment + 3 pending
        applied, _, full = apply_archive_delta(
            replica, encode_archive_delta(primary, cursor)
        )
        assert applied is replica and not full
        after = cursor_of(replica)
        assert after == cursor_of(primary)
        assert after.segments[3] == 1 and after.pending[3] == 3
        assert encode_archive(replica) == encode_archive(primary)

    def test_cursor_past_a_restored_primary_tail_forces_full_resync(self):
        primary = SiteArchive(0, seal_every=2048)
        append_tail(primary, 10)
        checkpoint = encode_archive(primary)
        append_tail(primary, 20)
        replica, _, _ = apply_archive_delta(
            None, encode_archive_delta(primary, ZERO_CURSOR)
        )
        cursor = cursor_of(replica)
        restored = decode_archive(checkpoint)
        # Same generation, segment counts and intern tables: only the
        # pending counts tell the replica is ahead of the restored tail.
        assert cursor._replace(pending=ZERO_CURSOR.pending) == cursor_of(
            restored
        )._replace(pending=ZERO_CURSOR.pending)
        assert cursor.pending[3] == 30 and len(restored.events.pending) == 10
        rebuilt, _, full = apply_archive_delta(
            replica, encode_archive_delta(restored, cursor)
        )
        assert full and rebuilt is not replica
        assert encode_archive(rebuilt) == encode_archive(restored)

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_catchup_identity_suffix(self, seed):
        """Suffix and segment deltas over drops, duplicates, reordering."""
        link = LossyLink(seed)
        primary = SiteArchive(0, seal_every=16)
        ArchivePublisher(primary).bind(link)
        replica = ArchiveReplica(0, replica_site_id(0, 0, 1))
        replica.bind(link)
        for _ in range(12):  # 36 event rows: two seals, suffixes between
            append_tail(primary, 3)
            replica.catch_up()
            assert_identical(replica, primary)
        assert cursor_of(replica.archive).segments[3] == 2
        assert replica.stats.full_resyncs == 0
        assert replica.stats.stale_deltas > 0
        assert all(link.injected.values()), link.injected

    def test_version_1_fetch_and_delta_are_rejected(self):
        primary = build_archive()
        fetch = encode_replica_fetch(1, cursor_of(primary))
        delta = encode_archive_delta(primary, ZERO_CURSOR)
        assert REPLICATION_VERSION == 2 and fetch[0] == delta[0] == 2
        with pytest.raises(ValueError, match="version 1"):
            decode_replica_fetch(b"\x01" + fetch[1:])
        with pytest.raises(ValueError, match="version 1"):
            apply_archive_delta(None, b"\x01" + delta[1:])


class TestReplicaService:
    def wire(self, transport=None):
        transport = transport if transport is not None else InProcessTransport()
        primary = build_archive()
        publisher = ArchivePublisher(primary)
        publisher.bind(transport)
        replica = ArchiveReplica(primary.site, replica_site_id(primary.site, 0, 1))
        replica.bind(transport)
        return transport, primary, replica

    def test_site_id_validation(self):
        with pytest.raises(ValueError, match="below"):
            ArchiveReplica(0, REPLICA_SITE_BASE + 1)
        with pytest.raises(ValueError, match="outside"):
            replica_site_id(2, 0, 2)
        # Distinct (index, primary) pairs never collide.
        ids = {replica_site_id(p, r, 3) for p in range(3) for r in range(4)}
        assert len(ids) == 12 and all(i <= REPLICA_SITE_BASE for i in ids)

    def test_catchup_reaches_identity_and_is_incremental(self):
        _, primary, replica = self.wire()
        assert replica.catch_up() == 1
        assert_identical(replica, primary)
        rows_before = primary.row_count()
        grow_archive(primary, 4, 2)
        added = primary.row_count() - rows_before
        first_bytes = replica.stats.bytes_applied
        replica.catch_up()
        assert_identical(replica, primary)
        # The second round shipped a delta, not the whole archive again:
        # at most 64 B per added row (the widest sealed row, an alert
        # with two values, is 56 B) plus 512 B for the header, new
        # intern entries and the open intervals of the five live tags.
        second_bytes = replica.stats.bytes_applied - first_bytes
        assert second_bytes < first_bytes
        assert second_bytes <= 64 * added + 512
        assert replica.stats.full_resyncs == 0

    def test_compaction_resync_through_the_service(self):
        _, primary, replica = self.wire()
        replica.catch_up()
        primary.compact()
        grow_archive(primary, 4, 1)
        replica.catch_up()
        assert replica.stats.full_resyncs == 1
        assert_identical(replica, primary)

    def test_replica_crash_and_rejoin(self):
        transport, primary, replica = self.wire()
        replica.catch_up()
        grow_archive(primary, 4, 2)
        # The replica process dies; a fresh instance (empty archive,
        # zero cursor) takes over its duties and converges from scratch.
        rejoined = ArchiveReplica(primary.site, replica_site_id(primary.site, 1, 1))
        rejoined.bind(transport)
        rejoined.catch_up()
        assert_identical(rejoined, primary)

    def test_foreign_envelope_kinds_are_dropped(self):
        _, primary, replica = self.wire()
        replica.handle(Envelope(0, replica.site_id, "inference-state", b"", 0))
        replica.handle(Envelope(0, replica.site_id, REPLICA_SEGMENTS, b"\xff" * 4, 0))
        assert replica.stats.dropped == 1
        assert replica.stats.stale_deltas == 1

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_chaos_catchup_identity(self, seed):
        """Drops, duplicates, delays, reordering — identity regardless.

        Includes crash+catch-up: a replica that loses all state rejoins
        over the same chaotic links and still converges bit-identically.
        """
        plan = FaultPlan.chaos(seed, drop=0.25, duplicate=0.2, delay=0.25, max_delay=3)
        transport, primary, replica = self.wire(FaultyTransport(plan))
        replica.catch_up()
        assert_identical(replica, primary)
        for step in range(3):
            grow_archive(primary, 4 + 2 * step, 2)
            replica.catch_up()
            assert_identical(replica, primary)
        primary.compact()
        replica.catch_up()
        assert_identical(replica, primary)
        rejoined = ArchiveReplica(primary.site, replica_site_id(primary.site, 1, 1))
        rejoined.bind(transport)
        rejoined.catch_up()
        assert_identical(rejoined, primary)
