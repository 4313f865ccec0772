"""The observability plane's unit surface: registry encoding
determinism, flight-recorder bounding, causal span parentage, the
telemetry facade's disabled-by-default contract, the ledger and tier
gauges as plain attributes, and the summary CLI.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.network import Network
from repro.archive.tiers import TierStats
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    FlightRecorder,
    MetricsRegistry,
    Telemetry,
    get_telemetry,
    install,
    telemetry_session,
    uninstall,
    write_jsonl,
)
from repro.obs.spans import NULL_SPAN
from repro.obs.summary import main as summary_main


class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        reg.counter("runs").inc()
        reg.counter("runs").inc(3)
        assert reg.counter("runs").value == 4
        reg.gauge("depth").set(7)
        reg.gauge("depth").add(-2)
        assert reg.gauge("depth").value == 5
        hist = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.1, 0.5, 5.0):
            hist.observe(v)
        # ≤-bound semantics: 0.1 lands in the first bucket; 5.0 overflows.
        assert hist.counts == [2, 1, 1]
        assert hist.count == 4 and hist.sum == pytest.approx(5.65)

    def test_labels_key_distinct_series_and_kwarg_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("c", site=0) is not reg.counter("c", site=1)
        assert reg.counter("c", site=0) is not reg.counter("c")
        assert reg.counter("c", a=1, b=2) is reg.counter("c", b=2, a=1)

    def test_histogram_bucket_mismatch_rejected(self):
        reg = MetricsRegistry()
        reg.histogram("lat", buckets=(0.1, 1.0))
        with pytest.raises(ValueError, match="different"):
            reg.histogram("lat", buckets=(0.5, 1.0))
        with pytest.raises(ValueError, match="increasing"):
            reg.histogram("bad", buckets=(1.0, 0.5))

    def test_quantile_is_bucket_upper_bound(self):
        reg = MetricsRegistry()
        hist = reg.histogram("lat")
        assert hist.quantile(0.5) == 0.0  # empty
        for _ in range(99):
            hist.observe(0.0002)
        hist.observe(9.0)
        assert hist.quantile(0.5) == 0.00025
        assert hist.quantile(1.0) == DEFAULT_LATENCY_BUCKETS[-1]

    def test_encode_is_canonical_across_insertion_order(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x", site=1).inc(2)
        a.counter("y").inc(5)
        a.gauge("g").set(3)
        b.gauge("g").set(3)
        b.counter("y").inc(5)
        b.counter("x", site=1).inc(2)
        assert a.encode() == b.encode()

    def test_decode_encode_round_trip(self):
        reg = MetricsRegistry()
        reg.counter("msgs", kind="data").inc(10)
        reg.gauge("depth", site=2).set(1.5)
        reg.histogram("lat", site=0).observe(0.003)
        assert MetricsRegistry.decode(reg.encode()).encode() == reg.encode()

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.dictionaries(
                    st.sampled_from(["k", "l"]), st.integers(0, 3), max_size=2
                ),
                st.integers(-100, 100),
            ),
            max_size=30,
        )
    )
    def test_counter_encoding_order_free_and_round_trips(self, ops):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for name, labels, delta in ops:
            forward.counter(name, **labels).inc(delta)
        for name, labels, delta in reversed(ops):
            backward.counter(name, **labels).inc(delta)
        assert forward.encode() == backward.encode()
        assert MetricsRegistry.decode(forward.encode()).encode() == forward.encode()

    def test_merge_adds_counters_and_histograms_last_writes_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.gauge("g").set(1)
        a.histogram("h", buckets=(1.0,)).observe(0.5)
        b.counter("c").inc(3)
        b.gauge("g").set(9)
        b.histogram("h", buckets=(1.0,)).observe(2.0)
        a.merge(b.snapshot())
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 9
        hist = a.histogram("h", buckets=(1.0,))
        assert hist.counts == [1, 1] and hist.count == 2

    def test_drain_clears_and_never_double_counts(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(4)
        parent = MetricsRegistry()
        parent.merge(reg.drain())
        parent.merge(reg.drain())  # second drain is empty
        assert parent.counter("c").value == 4
        assert reg.snapshot() == {"counters": [], "gauges": [], "histograms": []}


class TestFlightRecorder:
    def test_ring_stays_bounded_under_sustained_load(self):
        rec = FlightRecorder(capacity=64)
        for i in range(10_000):
            rec.record_state("test", "tick", i=i)
        assert len(rec) == 64
        assert rec.total_recorded == 10_000
        kept = rec.entries()
        assert [e["i"] for e in kept] == list(range(10_000 - 64, 10_000))

    def test_tail_filters_on_field_equality(self):
        rec = FlightRecorder(capacity=16)
        for w in (0, 1, 0, 1, 0):
            rec.record_state("process", "cmd", worker=w)
        assert len(rec.tail(10, worker=0)) == 3
        assert rec.tail(2, worker=1) == rec.tail(10, worker=1)[-2:]

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="positive"):
            FlightRecorder(capacity=0)

    def test_dump_is_parseable_jsonl(self, tmp_path):
        rec = FlightRecorder(capacity=8)
        rec.record_state("edge", "seal", boundary=300)
        rec.record({"type": "span", "plane": "site", "name": "queries"})
        path = rec.dump(str(tmp_path / "flight.jsonl"))
        lines = [json.loads(line) for line in open(path)]
        assert [e["type"] for e in lines] == ["state", "span"]
        assert lines[0]["boundary"] == 300


class TestTracer:
    def test_span_nesting_sets_parent_ids(self):
        tel = Telemetry(capacity=32)
        with tel.span("federation", "tick", boundary=300):
            with tel.span("inference", "run", site=1) as inner:
                inner.set(rows=10)
        spans = [e for e in tel.recorder.entries() if e["type"] == "span"]
        # Inner span finishes (and records) first.
        inner_entry, outer_entry = spans
        assert inner_entry["name"] == "run"
        assert inner_entry["parent_id"] == outer_entry["span_id"]
        assert outer_entry["parent_id"] == 0  # root: no enclosing span
        assert inner_entry["rows"] == 10
        assert inner_entry["duration"] >= 0.0

    def test_disabled_telemetry_returns_null_span_and_records_nothing(self):
        tel = Telemetry(enabled=False, capacity=4)
        span = tel.span("edge", "pump_round")
        assert span is NULL_SPAN
        with span as s:
            s.set(anything=1)
        tel.record_state("x", "y")
        tel.counter("c").inc()  # registry still works when disabled
        assert len(tel.recorder) == 0
        assert tel.dump() is None


class TestTelemetryGlobal:
    def test_default_is_disabled(self):
        assert get_telemetry().enabled is False

    def test_install_uninstall_cycle(self):
        tel = install(Telemetry(capacity=8))
        try:
            assert get_telemetry() is tel
        finally:
            uninstall()
        assert get_telemetry().enabled is False

    def test_session_scopes_install(self):
        with telemetry_session(capacity=8) as tel:
            assert get_telemetry() is tel and tel.enabled
        assert get_telemetry().enabled is False

    def test_dump_writes_meta_entries_and_metrics(self, tmp_path):
        with telemetry_session(capacity=8, dump_dir=str(tmp_path)) as tel:
            tel.record_state("edge", "seal", boundary=300)
            tel.counter("sealed").inc(5)
            path = tel.dump(reason="demo")
        lines = [json.loads(line) for line in open(path)]
        assert lines[0]["type"] == "meta" and lines[0]["reason"] == "demo"
        assert lines[1]["name"] == "seal"
        assert lines[-1]["type"] == "metrics"
        assert ["sealed", [], 5] in lines[-1]["registry"]["counters"]


class TestPlainGauges:
    """The ledger's and the archive tiers' always-on gauges are plain
    attributes, read and bumped in place."""

    def test_network_gauges_start_at_zero_and_count(self):
        ledger = Network()
        ledger.plan_operators_built += 3
        ledger.frontend_retransmits += 2
        ledger.edge_late_readings += 1
        ledger.pruned_tags[0] += 4
        ledger.pruned_tags[1] += 0
        ledger.faults_injected["drop"] += 1
        assert ledger.plan_operators_built == 3
        assert ledger.frontend_retransmits == 2
        assert ledger.rebalances == 0
        assert ledger.edge_gauges() == {
            "late_readings": 1,
            "late_dropped": 0,
            "window_reruns": 0,
            "duplicate_batches": 0,
        }
        assert ledger.pruned_tags == {0: 4, 1: 0}
        assert ledger.faults_injected == {"drop": 1}

    def test_tier_stats_as_dict(self):
        stats = TierStats()
        stats.spills += 2
        stats.corruptions += 1
        assert stats.as_dict() == {
            "spills": 2,
            "loads": 0,
            "cache_hits": 0,
            "evictions": 0,
            "bytes_spilled": 0,
            "corruptions": 1,
        }


class TestSummaryCli:
    def test_summarizes_a_demo_dump(self, tmp_path, capsys):
        with telemetry_session(capacity=64, dump_dir=str(tmp_path)) as tel:
            with tel.span("federation", "tick", boundary=300):
                with tel.span("inference", "run", site=0):
                    with tel.span("inference", "phase.e_step"):
                        pass
            tel.record_state("federation", "site.crash", site=1)
            tel.counter("inference_runs", site=0).inc()
            path = tel.dump(reason="demo")
        assert summary_main([path]) == 0
        out = capsys.readouterr().out
        assert "per-plane spans" in out
        assert "inference" in out and "federation" in out
        assert "inference/phase.e_step" in out
        assert "site.crash" in out
        assert "inference_runs{site=0}" in out

    def test_plane_filter_and_missing_file(self, tmp_path, capsys):
        with telemetry_session(capacity=8, dump_dir=str(tmp_path)) as tel:
            with tel.span("edge", "pump_round"):
                pass
            path = tel.dump(reason="demo")
        assert summary_main([path, "--plane", "edge"]) == 0
        assert "edge" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            summary_main([str(tmp_path / "missing.jsonl"), "--bogus"])
