"""Every metric the benchmark prints: name, unit, direction, and which
end-to-end metric (on which workload) a per-layer metric should move.

``BENCHMARK.json`` at the repository root lists the same names and
units; ``test_perfbench.py`` keeps the two in step.
"""

from __future__ import annotations

#: (name, unit, better, definition) — measured with tracing off; each
#: timed sample (boundary, read, ingest) is its median over the passes of
#: one input set, which all do the same work on the same inputs, and every
#: time is scaled to the reference host speed (``run.REFERENCE_S``).
END_TO_END = (
    ("setup_s", "s", "lower",
     "median program set-up: Cluster, queries and sensor streams, replicas "
     "and frontends attached (trace simulation excluded)"),
    ("readings_per_s", "readings/s", "higher",
     "readings delivered by the feeds / (run_ingest + every Cluster.run(b)), "
     "each call's time its median over passes; set-up and the client's query "
     "loop excluded"),
    ("freshness_p50_s", "s", "lower",
     "per boundary: call to Cluster.run(b) until a frontend probe returns the "
     "containment row archived at b; median over the boundaries"),
    ("freshness_p90_s", "s", "lower", "as freshness_p50_s, 90th percentile"),
    ("query_p50_ms", "ms", "lower",
     "interactive latest-state read latency, one closed-loop client; median "
     "over the reads of a pass"),
    ("query_p95_ms", "ms", "lower", "as query_p50_ms, 95th percentile"),
    ("comm_bytes_per_reading", "B/reading", "lower",
     "inter-site bytes of the Table 5 kinds (ons-*, migrate-request, "
     "inference-state, query-state) / readings"),
    ("peak_rss_mb", "MB", "lower",
     "peak RSS of the benchmark process (simulation included)"),
)

SUPPLY = "supply-chain"
COLD = "cold-chain"
FRESH = "freshness_p50_s/freshness_p90_s"
QUERY = "query_p50_ms/query_p95_ms"

#: (name, unit, better, should move, on workloads) — from the traced run.
#: Times are self times per traced pass unless the name says otherwise;
#: counts are per pass.
PER_LAYER = (
    ("sim.generate_s", "s", "lower", 'nothing: generator, outside every timer', ()),
    ("sim.feed_emit_s", "s", "lower", 'nothing: generator inside run_ingest', ()),
    ("edge.ingest_line_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.pump_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.gateway_handle_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.gateway_advance_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.gateway_restart_s", "s", "lower", 'readings_per_s', (COLD,)),
    ("edge.build_traces_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.loop_s", "s", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.readings", "count", "higher", 'input size', ()),
    ("edge.pump_rounds", "count", "lower", 'readings_per_s', (SUPPLY,)),
    ("edge.retransmits", "count", "lower", 'readings_per_s', (COLD,)),
    ("edge.duplicate_batches", "count", "lower", 'readings_per_s', (COLD,)),
    ("edge.useful_batch_ratio", "ratio", "higher", 'readings_per_s', (COLD,)),
    ("edge.max_pending_readings", "count", "lower", 'peak_rss_mb', (COLD,)),
    ("edge.wal_bytes", "B", "lower", 'readings_per_s', (COLD,)),
    ("runtime.boundary_s", "s", "lower", FRESH, (SUPPLY, COLD)),
    ("runtime.poll_arrivals_s", "s", "lower", FRESH, (SUPPLY,)),
    # envelope glue: migration requests/bundles and history-request codecs
    ("runtime.handle_s", "s", "lower", FRESH + ", " + QUERY, (SUPPLY,)),
    ("runtime.handoff_s", "s", "lower", FRESH, (COLD,)),
    ("runtime.unattributed_s", "s", "lower", FRESH, (SUPPLY, COLD)),
    ("runtime.unattributed_share", "ratio", "lower",
     'attribution coverage (bound: 10% of wall)', ()),
    ("runtime.envelopes", "count", "lower", 'comm_bytes_per_reading', (SUPPLY,)),
    ("core.run_s", "s", "lower", FRESH, (COLD,)),
    ("core.export_s", "s", "lower", FRESH, (SUPPLY,)),
    ("core.absorb_s", "s", "lower", FRESH, (SUPPLY,)),
    ("core.truncate_s", "s", "lower", FRESH, (COLD,)),
    ("core.window_rows", "count", "lower", FRESH, (COLD,)),
    ("core.full_tags", "count", "lower", FRESH, (COLD,)),
    ("core.pruned_tags", "count", "higher", FRESH, (COLD,)),
    ("core.gate_prune_ratio", "ratio", "higher", FRESH, (COLD,)),
    ("core.containment_error", "ratio", "lower", 'inference quality', (SUPPLY, COLD)),
    ("distributed.ons_s", "s", "lower", FRESH, (SUPPLY,)),
    ("distributed.centroid_s", "s", "lower", FRESH, (SUPPLY, COLD)),
    ("distributed.ons_bytes", "B", "lower", 'comm_bytes_per_reading', (SUPPLY,)),
    ("distributed.migrate_request_bytes", "B", "lower", 'comm_bytes_per_reading', (SUPPLY,)),
    ("distributed.inference_state_bytes", "B", "lower", 'comm_bytes_per_reading', (SUPPLY,)),
    ("distributed.query_state_bytes", "B", "lower", 'comm_bytes_per_reading', (COLD,)),
    ("queries.push_s", "s", "lower", FRESH, (COLD,)),
    ("queries.tuples_in", "count", "lower", FRESH, (COLD,)),
    ("queries.alerts", "count", "higher", 'alert quality', (COLD,)),
    ("queries.alert_f1", "ratio", "higher", 'alert quality', (COLD,)),
    ("archive.append_s", "s", "lower", FRESH, (SUPPLY,)),
    ("archive.rows", "count", "lower", FRESH, (SUPPLY,)),
    ("archive.bytes", "B", "lower", FRESH, (SUPPLY,)),
    ("serving.catchup_s", "s", "lower", FRESH, (COLD,)),
    ("serving.replica_delta_s", "s", "lower", FRESH, (COLD,)),
    ("serving.replica_apply_s", "s", "lower", FRESH, (COLD,)),
    ("serving.history_s", "s", "lower", QUERY, (SUPPLY, COLD)),
    ("serving.query_s", "s", "lower", QUERY, (COLD,)),
    ("serving.replication_bytes", "B", "lower", FRESH, (COLD,)),
    ("serving.replication_amplification", "ratio", "lower", FRESH, (COLD,)),
    ("serving.cache_hit_ratio", "ratio", "higher", QUERY, (COLD,)),
    ("serving.remote_requests", "count", "lower", QUERY, (COLD,)),
    ("serving.retransmits", "count", "lower", QUERY, (COLD,)),
    ("serving.rejected", "count", "lower", QUERY, (COLD,)),
    ("serving.shed", "count", "lower", QUERY, (COLD,)),
    ("serving.fail_ratio", "ratio", "lower", QUERY, (COLD,)),
    ("trace.wall_s", "s", "lower", 'traced wall per pass: the self times sum to it', ()),
    ("trace.overhead_s", "s", "lower", 'traced wall minus untraced wall per pass', ()),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
