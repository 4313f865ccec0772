"""Incremental archive ingest against the full-scan oracle.

``SiteArchive.ingest_service`` visits only the tags the service wrote
since the archive's last ingest (``StreamingInference.changed_since``).
The oracle here is the full scan it replaced — every tag in the
service's ``containment`` and ``last_weights``, every boundary — kept
test-local. Each scenario runs twice, once per ingest, and the encoded
archives must be equal after every boundary: across migrations (the
``absorb_state`` seeds), gated inference with change detection and a
memory budget, and a crash/recover whose restored service can only be
full-scanned.
"""

from __future__ import annotations

import pytest

from repro.archive import NO_CONTAINER, SiteArchive, encode_archive
from repro.archive import store
from repro.core.collapsed import CollapsedState
from repro.core.online import MemoryBudget, OnlineConfig
from repro.core.service import ServiceConfig, StreamingInference
from repro.runtime import Cluster
from repro.sim.supplychain import SupplyChainParams, simulate
from repro.sim.tags import EPC, TagKind
from repro.sim.warehouse import WarehouseParams
from repro.workloads.scenarios import cold_chain_scenario


def full_scan_ingest(self: SiteArchive, service) -> None:
    """The oracle: ingest that revisits every tag the service holds."""
    boundary = service.last_run_time
    if boundary < self.last_boundary:
        raise ValueError("older boundary")
    fresh, self._event_cursor = service.events_since(self._event_cursor)
    for event in fresh:
        tag_id = self.intern_tag(event.tag)
        container = (
            NO_CONTAINER if event.container is None else self.intern_tag(event.container)
        )
        self.events.append(event.time, tag_id, event.place, container)
        self.location.observe(tag_id, event.time, ((event.place, 1.0),), value_only=True)
        if event.time > self.last_event.get(tag_id, -1):
            self.last_event[tag_id] = event.time
    for tag in sorted(service.containment):
        tag_id = self.intern_tag(tag)
        container = service.containment[tag]
        weights = service.last_weights.get(tag)
        posterior_list = store._posteriors(weights) if weights else []
        if container is None:
            state = ((NO_CONTAINER, 1.0),)
        else:
            table = dict(posterior_list)
            posterior = table.get(container, 1.0 if not posterior_list else 0.0)
            state = ((self.intern_tag(container), posterior),)
        self.containment.observe(tag_id, boundary, state, value_only=True)
    for tag in sorted(service.last_weights):
        weights = service.last_weights[tag]
        if not weights:
            continue
        tag_id = self.intern_tag(tag)
        posterior_list = store._posteriors(weights)
        top = sorted(posterior_list, key=lambda cp: (-cp[1], cp[0]))[: self.top_k]
        self.belief.observe(
            tag_id, boundary, tuple((self.intern_tag(cand), prob) for cand, prob in top)
        )
    self.last_boundary = max(self.last_boundary, boundary)


@pytest.fixture
def posterior_calls(monkeypatch):
    """Counts ``repro.archive.store._posteriors`` calls."""
    calls = [0]
    original = store._posteriors

    def counting(weights):
        calls[0] += 1
        return original(weights)

    monkeypatch.setattr(store, "_posteriors", counting)
    return calls


def archives_by_boundary(make_cluster, horizon):
    """Every node's encoded archive after every boundary."""
    with make_cluster() as cluster:
        interval = cluster.config.run_interval
        encoded = []
        for boundary in range(interval, horizon + 1, interval):
            cluster.run(boundary)
            encoded.append([encode_archive(node.archive) for node in cluster.nodes])
        return encoded


def assert_matches_oracle(make_cluster, horizon, monkeypatch, posterior_calls):
    with monkeypatch.context() as patch:
        patch.setattr(SiteArchive, "ingest_service", full_scan_ingest)
        oracle = archives_by_boundary(make_cluster, horizon)
    oracle_calls, posterior_calls[0] = posterior_calls[0], 0
    incremental = archives_by_boundary(make_cluster, horizon)
    assert len(incremental) == len(oracle) > 0
    for boundary, (got, want) in enumerate(zip(incremental, oracle)):
        assert got == want, f"archives diverge at boundary #{boundary}"
    # The oracle normalizes each tag twice (containment, then belief),
    # incremental ingest each changed tag once.
    assert 0 < 2 * posterior_calls[0] <= oracle_calls
    return posterior_calls[0], oracle_calls


def supply_chain(
    seed: int, horizon: int, n_warehouses: int = 4, injection_period: int = 100
):
    """Single-case pallets of five items (the perfbench supply chain, smaller)."""
    return simulate(
        SupplyChainParams(
            n_warehouses=n_warehouses,
            horizon=horizon,
            items_per_case=5,
            cases_per_pallet=1,
            injection_period=injection_period,
            main_read_rate=0.4,
            transit_time=10,
            warehouse=WarehouseParams(
                shelf_dwell_mean=10, shelf_dwell_jitter=3, entry_dwell=5, exit_dwell=5
            ),
            seed=seed,
        )
    )


SUPPLY_CONFIG = ServiceConfig(
    run_interval=15, recent_history=15, truncation="cr", emit_events=False
)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_supply_chain_with_migrations(self, seed, monkeypatch, posterior_calls):
        traces = supply_chain(seed, horizon=450).traces
        seeds = []
        absorb = StreamingInference.absorb_state

        def counting_absorb(self, state):
            if state.tag not in self.containment and state.container is not None:
                seeds.append(state.tag)
            absorb(self, state)

        monkeypatch.setattr(StreamingInference, "absorb_state", counting_absorb)
        calls, oracle_calls = assert_matches_oracle(
            lambda: Cluster(traces, SUPPLY_CONFIG), 450, monkeypatch, posterior_calls
        )
        assert seeds, "no migration seeded a container"
        # Tags that left a site's window are not revisited.
        assert 2 * calls < oracle_calls

    def test_gated_cold_chain_with_site_move(self, monkeypatch, posterior_calls):
        scenario = cold_chain_scenario(
            seed=7,
            n_sites=2,
            n_freezer_cases=6,
            n_room_cases=3,
            items_per_case=6,
            horizon=1500,
            site_leave_time=700,
        )
        config = ServiceConfig(
            run_interval=100,
            recent_history=200,
            truncation="cr",
            emit_events=True,
            event_period=5,
            change_detection=True,
            change_threshold=80.0,
            online=OnlineConfig(),
            budget=MemoryBudget(horizon=800),
        )
        clusters = []

        def make_cluster():
            clusters.append(Cluster(scenario.traces, config))
            return clusters[-1]

        calls, oracle_calls = assert_matches_oracle(
            make_cluster, 1500, monkeypatch, posterior_calls
        )
        gated = clusters[-1]
        assert any(node.service.changes for node in gated.nodes)
        assert sum(gated.network.pruned_tags.values()) > 0
        # Tags the gate pins carry forward unchanged and are not revisited.
        assert 2 * calls < oracle_calls

    def test_crash_recover_falls_back_to_full_scan(self, monkeypatch, posterior_calls):
        traces = supply_chain(1, horizon=450).traces
        scans = []
        changed_since = StreamingInference.changed_since

        def logging_changed_since(self, cursor):
            changed, cursor = changed_since(self, cursor)
            everything = self.containment.keys() | self.last_weights.keys()
            scans.append((self.site, self.last_run_time, changed == everything))
            return changed, cursor

        monkeypatch.setattr(StreamingInference, "changed_since", logging_changed_since)

        def make_cluster():
            cluster = Cluster(traces, SUPPLY_CONFIG)
            cluster.crash(1, 200)
            cluster.recover(1, 205)
            return cluster

        assert_matches_oracle(make_cluster, 450, monkeypatch, posterior_calls)
        # The restored site's first ingest (boundary 210) scanned every
        # tag; the one before it, on the pre-crash service, did not.
        site_1 = {boundary: full for site, boundary, full in scans if site == 1}
        assert site_1[210] and not site_1[195]


class TestChangeFeed:
    @pytest.fixture
    def service(self):
        trace = supply_chain(1, horizon=300, n_warehouses=1).trace
        return StreamingInference(trace, SUPPLY_CONFIG)

    def test_cursor_rules(self, service):
        service.run_at(15)
        # Nobody follows the feed yet: nothing is recorded.
        assert service._changed is None
        everything = service.containment.keys() | service.last_weights.keys()
        assert everything
        changed, cursor = service.changed_since(None)
        assert changed == everything
        record = service.run_at(30)
        changed, cursor = service.changed_since(cursor)
        assert changed == record.result.weights.keys() | record.result.containment.keys()
        # Taken changes leave the buffer.
        assert service._changed == set()
        # A cursor this service did not issue last yields every tag.
        other = StreamingInference(service.trace, SUPPLY_CONFIG)
        _, foreign = other.changed_since(None)
        service.run_at(45)
        everything = service.containment.keys() | service.last_weights.keys()
        assert service.changed_since(foreign)[0] == everything
        assert service.changed_since(cursor)[0] == everything

    def test_absorbed_seed_is_archived_without_a_run(self, service):
        """A migrated container seed is a containment write of its own:
        the next ingest archives it even if no run covered the tag."""
        service.run_at(15)
        archive, oracle = SiteArchive(0), SiteArchive(0)
        archive.ingest_service(service)
        full_scan_ingest(oracle, service)
        arrival = EPC(TagKind.ITEM, 10_000)
        case = EPC(TagKind.CASE, 10_000)
        service.absorb_state(CollapsedState(arrival, {case: 0.0}, container=case))
        assert service._changed == {arrival}
        archive.ingest_service(service)
        full_scan_ingest(oracle, service)
        assert archive.tag_id_of(arrival) is not None
        assert encode_archive(archive) == encode_archive(oracle)

    def test_posteriors_follow_changed_tags_not_stream_length(self, posterior_calls):
        """At the last boundary, ingest normalizes each changed tag with
        candidates exactly once, however long the stream has run."""
        # A pallet enters every 90 epochs; both runs end 30 epochs into
        # one, at 660 and at 4 x 660, so their windows hold one pallet.
        trace = supply_chain(3, horizon=2700, n_warehouses=1, injection_period=90).trace
        pallet = 5 + 1
        interval = SUPPLY_CONFIG.run_interval

        def last_boundary_calls(horizon):
            service = StreamingInference(trace, SUPPLY_CONFIG)
            archive = SiteArchive(0)
            for boundary in range(interval, horizon + 1, interval):
                record = service.run_at(boundary)
                posterior_calls[0] = 0
                archive.ingest_service(service)
            written = record.result.weights.keys() | record.result.containment.keys()
            expected = sum(1 for tag in written if service.last_weights.get(tag))
            assert 0 < posterior_calls[0] == expected
            seen = sum(1 for weights in service.last_weights.values() if weights)
            return posterior_calls[0], seen

        short, seen_short = last_boundary_calls(660)
        long, seen_long = last_boundary_calls(4 * 660)
        # The full scan would normalize every tag ever seen: 3x more here.
        assert seen_long >= 3 * seen_short
        assert short <= pallet and long <= pallet
