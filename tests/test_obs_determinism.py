"""The observability plane's load-bearing invariant: telemetry on vs
off is **bit-identical** — containment trajectories, alerts, changes,
archives, history answers, and every ledger byte (including the
retransmit/ack overhead kinds) — across the chaos seed matrix,
crash/recover, and the process-parallel transport. Tracing observes
the planes; it must never participate in them.

Also the ``WorkerDied`` black-box satellite: a worker killed
mid-barrier surfaces with its flight-recorder tail attached, bounded.

Set ``CHAOS_SEED`` (CI matrix) to verify one extra fault-plan seed.
On an invariant failure the traced run's flight recorder is dumped to
``$CHAOS_DUMP_DIR`` (default ``chaos-dumps/``) for artifact upload.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import pytest

from chaos import assert_chaos_invariant, chaos_plan, chaos_scenario, chaos_transport, run_chaos
from repro.obs import telemetry_session
from repro.runtime import FaultyTransport, ProcessTransport, WorkerDied

CHAOS_SEEDS = (
    [int(os.environ["CHAOS_SEED"])] if os.environ.get("CHAOS_SEED") else [11, 23, 47]
)
#: same per-seed crash schedule the fault-tolerance matrix uses.
CRASHES = {seed: (seed % 2, 910 + seed % 50, 1150) for seed in CHAOS_SEEDS}


@pytest.fixture(scope="module")
def scenario():
    return chaos_scenario()


@pytest.fixture(scope="module")
def baseline(scenario):
    """The fault-free, untraced in-process reference run."""
    return run_chaos(scenario)


@contextmanager
def traced_or_dump(reason: str, capacity: int = 16384):
    """A telemetry session that dumps its flight recorder on any
    failure raised inside the block — the chaos black box CI uploads."""
    with telemetry_session(capacity=capacity) as tel:
        try:
            yield tel
        except BaseException:
            dump_dir = os.environ.get("CHAOS_DUMP_DIR", "chaos-dumps")
            os.makedirs(dump_dir, exist_ok=True)
            tel.dump(reason=reason, path=os.path.join(dump_dir, f"flight-{reason}.jsonl"))
            raise


def assert_route_phases_traced(entries):
    """The route phase's own work — arrival polling and the ONS
    lookup/update loop — is spanned under ``federation/route``."""
    spans = {e["span_id"]: e for e in entries if e.get("type") == "span"}
    for name in ("route.poll", "route.ons"):
        phases = [
            e for e in spans.values() if (e["plane"], e["name"]) == ("federation", name)
        ]
        assert phases, name
        for phase in phases:
            parent = spans[phase["parent_id"]]
            assert (parent["plane"], parent["name"]) == ("federation", "route")


def assert_bit_identical(off, on):
    """Telemetry-on must equal telemetry-off on *every* observable,
    including the fault-overhead ledger bytes the chaos invariant
    normally sets aside — tracing must not even change retransmits."""
    assert on.containment_error == off.containment_error
    assert on.snapshots == off.snapshots
    assert on.alerts == off.alerts
    assert on.changes == off.changes
    assert on.migrations == off.migrations
    assert on.data_bytes == off.data_bytes
    assert on.all_bytes == off.all_bytes
    assert on.overhead_bytes == off.overhead_bytes
    assert on.duplicates_dropped == off.duplicates_dropped
    assert on.archives == off.archives
    assert on.history == off.history


class TestTelemetryChaos:
    """Named for the CI chaos matrix ``-k`` filter."""

    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_on_off_bit_identical_under_chaos_with_crash(
        self, scenario, baseline, seed
    ):
        off = run_chaos(
            scenario, transport=chaos_transport(seed), crash=CRASHES[seed]
        )
        with traced_or_dump(f"chaos-{seed}") as tel:
            faulty = chaos_transport(seed)
            on = run_chaos(scenario, transport=faulty, crash=CRASHES[seed])
            assert_bit_identical(off, on)
            # The traced run still satisfies the chaos invariant itself.
            assert_chaos_invariant(baseline, on)
            # And actually traced: spans recorded, fault injections and
            # the crash/recover transitions captured as states.
            assert tel.recorder.total_recorded > 0
            entries = tel.recorder.entries()
            names = {e.get("name") for e in entries}
            assert "site.crash" in names and "site.recover" in names
            assert any(str(e.get("name", "")).startswith("inject.") for e in entries)
            assert_route_phases_traced(entries)
            # The always-on ledger gauge mirrors the injected dict
            # exactly (some seeds legitimately never draw one kind).
            assert sum(faulty.injected.values()) > 0
            for fault, n in faulty.injected.items():
                assert faulty.ledger.faults_injected[fault] == n

    def test_on_off_bit_identical_on_process_transport(self, scenario, baseline):
        """The pipe-plane telemetry delta protocol (workers drain their
        buffers to the parent at barrier quiescence) must not perturb
        the transport's command stream: the seeded chaos run over
        forked workers — with a crash and a scheduled shard move — is
        bit-identical traced vs untraced."""
        seed = CHAOS_SEEDS[0]
        site, _, _ = CRASHES[seed]

        def run():
            inner = ProcessTransport(
                n_workers=2, rebalance=False, scheduled_moves={1: (site, 1 - site)}
            )
            result = run_chaos(
                scenario,
                transport=FaultyTransport(chaos_plan(seed), inner=inner),
                crash=CRASHES[seed],
            )
            return result, inner

        off, _ = run()
        with traced_or_dump(f"process-{seed}") as tel:
            on, inner = run()
            assert_bit_identical(off, on)
            assert_chaos_invariant(baseline, on)
            assert inner.ledger.rebalances == 1
            # Worker-shipped entries arrived and are stamped with their
            # worker id — the causal record spans the fork boundary.
            workers = {e["worker"] for e in tel.recorder.entries() if "worker" in e}
            assert workers & {0, 1}
            assert_route_phases_traced(tel.recorder.entries())
            assert tel.registry.counter("inference_runs", site=0).value > 0


def _die_transport(n_sites: int = 2):
    transport = ProcessTransport(n_workers=2)
    for site in range(n_sites):
        transport.register(site, lambda env: None)
        transport.host_site(
            site,
            {
                "attach": lambda shim: None,
                "echo": lambda *args: args,
                "die": lambda: os._exit(3),
            },
        )
    return transport


class TestWorkerDiedTail:
    def test_killed_worker_attaches_bounded_flight_tail(self, tmp_path):
        """Regression: a worker killed mid-barrier used to surface as a
        bare WorkerDied; it must now carry the dead worker's last
        flight-recorder entries (bounded at WorkerDied.TAIL)."""
        with telemetry_session(capacity=1024, dump_dir=str(tmp_path)) as tel:
            transport = _die_transport()
            try:
                transport.site_cast(0, "echo")  # fork the workers
                transport.flush()
                # Plenty of traffic so an unbounded tail would exceed TAIL.
                for _ in range(3 * WorkerDied.TAIL):
                    transport.site_cast(0, "echo")
                transport.site_cast(0, "die")
                with pytest.raises(WorkerDied, match="flight recorder") as err:
                    transport.flush()  # the barrier pump surfaces the death
            finally:
                transport.close()
            assert err.value.worker == 0
            tail = err.value.tail
            assert 0 < len(tail) <= WorkerDied.TAIL
            assert all(entry.get("worker") == 0 for entry in tail)
            # The last thing the black box saw was the fatal op.
            assert "die" in str(tail[-1].get("op", ""))
            # The parent telemetry recorded the death and dumped the box.
            names = {e.get("name") for e in tel.recorder.entries()}
            assert "worker.died" in names
            assert os.path.exists(tmp_path / "flight-worker-died-0.jsonl")

    def test_tail_attaches_without_telemetry_installed(self):
        """The transport's own black box is always on: WorkerDied
        carries a tail even when no telemetry session is active."""
        transport = _die_transport()
        try:
            transport.site_cast(0, "echo")
            transport.flush()
            transport.site_cast(0, "die")
            with pytest.raises(WorkerDied) as err:
                transport.flush()
        finally:
            transport.close()
        assert 0 < len(err.value.tail) <= WorkerDied.TAIL
        assert "flight recorder" in str(err.value)

    def test_transport_flight_ring_bounded_under_sustained_load(self):
        """The parent-side command black box must not grow without
        bound over a long run."""
        transport = _die_transport()
        capacity = transport.flight.capacity
        try:
            transport.site_cast(0, "echo")
            transport.flush()
            for _ in range(capacity + 200):
                transport.site_cast(1, "echo")
            transport.flush()
            assert len(transport.flight) == capacity
            assert transport.flight.total_recorded > capacity
        finally:
            transport.close()
