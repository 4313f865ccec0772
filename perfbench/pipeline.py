"""One pass of a workload through the whole public pipeline, checked.

A pass is, always in this order:

1. ``run_ingest`` — vendor feeds → edge nodes → ingest gateway → traces;
2. set-up — ``Cluster`` over the rebuilt traces, queries and sensor
   streams, replicas and frontends attached;
3. per boundary ``b``: ``Cluster.run(b)`` (inference, migration, archive
   append, replica catch-up), then a probe query through the frontend
   pool, then the client's closed loop of interactive reads and, where
   the workload has them, background audits.

Every pass checks its outputs (see :func:`run_pass`); a failed check is
a failed operation and makes the run incorrect.
"""

from __future__ import annotations

import gc
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro.archive import encode_archive
from repro.edge import run_ingest
from repro.metrics.fmeasure import FMeasure, match_alerts
from repro.serving import Backpressure, HistoryRequest, HistoryService
from repro.sim.tags import TagKind

from tracing import Tracer
from workloads import AUDITS, Q1_DURATION, Q2_DURATION, READS_PER_BOUNDARY, Inputs, Workload

#: ledger kinds of the paper's Table 5 (inter-site inference traffic).
TABLE5_KINDS = ("ons-lookup", "ons-update", "migrate-request", "inference-state", "query-state")

#: zipf exponent of the interactive reads over recently seen tags.
ZIPF_A = 1.3

_REFERENCE_ARRAY = np.random.default_rng(0).integers(0, 1 << 20, size=4096)
_REFERENCE_LIST = _REFERENCE_ARRAY[:1000].tolist()


def reference_kernel() -> int:
    """Fixed work that calls nothing of the program: dict, set and
    integer work in the interpreter plus a numpy sort and unique, the two
    kinds of work a boundary does. Its time tracks the host's speed."""
    counts: dict = {}
    for i in range(2000):
        key = i % 257
        counts[key] = counts.get(key, 0) + i
    seen = {value % 1009 for value in _REFERENCE_LIST}
    return len(counts) + len(seen) + len(np.unique(np.sort(_REFERENCE_ARRAY) % 997))


def time_reference(samples: list) -> None:
    """Append the time of one :func:`reference_kernel` call, taken with
    the collector off so the program's heap size does not reach it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_kernel()
        samples.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()


@dataclass
class PassResult:
    setup_s: float
    ingest_s: float
    boundary_s: list = field(default_factory=list)
    freshness_s: list = field(default_factory=list)
    query_s: list = field(default_factory=list)
    #: one :func:`reference_kernel` time per boundary, outside every timer.
    reference_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    readings: int = 0
    containment_error: float = 0.0
    bytes_by_kind: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    #: the pass's outermost frames; with wrappers installed when traced.
    frames: Tracer = field(default_factory=Tracer)
    traced: bool = False

    @property
    def pipeline_wall(self) -> float:
        """run_ingest start to the last ``Cluster.run(b)`` return, less set-up."""
        return self.ingest_s + sum(self.boundary_s)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


def traces_identical(rebuilt, originals) -> bool:
    """Gateway-rebuilt traces are bit-identical to the generated ones."""
    if len(rebuilt) != len(originals):
        return False
    for got, want in zip(rebuilt, originals):
        if (got.site, got.horizon, got.tag_table) != (want.site, want.horizon, want.tag_table):
            return False
        for column in ("times", "tag_ids", "readers"):
            if not np.array_equal(getattr(got, column), getattr(want, column)):
                return False
    return True


def direct_answer(cluster, request: HistoryRequest) -> tuple:
    """The freshest primary archive's answer to a point query, read
    directly through each site's :class:`HistoryService` (the merge rule
    of the frontend: non-empty rows with the latest ``last_update``)."""
    best = None
    for node in sorted(cluster.nodes, key=lambda n: n.site):
        answer = HistoryService(node.archive).answer(request)
        if answer.rows and (best is None or answer.last_update > best[2]):
            best = (node.site, answer.rows, answer.last_update)
    return (None, ()) if best is None else best[:2]


def replica_failures(deployment, primaries: dict | None = None) -> list[str]:
    """Replicas whose ``encode_archive`` differs from their primary's."""
    if primaries is None:
        primaries = {n.site: encode_archive(n.archive) for n in deployment.cluster.nodes}
    return [
        f"replica {replica.site_id} diverged from primary {replica.primary}"
        for replica in deployment.replicas
        if encode_archive(replica.archive) != primaries[replica.primary]
    ]


def alert_fmeasure(cluster, inputs: Inputs, tolerance: int) -> FMeasure:
    """q1 and q2 alerts against the injected exposures, pooled."""
    exposed = [(item, out) for item, out, back in inputs.exposures if back is None]
    hits = predicted = actual = 0
    for name, duration in (("q1", Q1_DURATION), ("q2", Q2_DURATION)):
        pairs = [pair for node in cluster.nodes for pair in node.queries[name].alert_pairs()]
        truth = [(item, out + duration) for item, out in exposed]
        score = match_alerts(pairs, truth, tolerance)
        hits, predicted, actual = (
            hits + score.true_positives,
            predicted + score.predicted,
            actual + score.actual,
        )
    return FMeasure.from_counts(hits, predicted, actual)


def run_pass(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    workroot: str,
    tracer: Tracer | None = None,
) -> PassResult:
    """One checked pass; ``tracer`` (already installed) makes it traced.

    Checks, each a failed operation when it does not hold:

    * the gateway-rebuilt traces are bit-identical to the generated ones;
    * each probe answer equals a direct lookup on the primary archives;
    * each replica's ``encode_archive`` equals its primary's at the end.
    """
    frames = tracer if tracer is not None else Tracer()
    interval = workload.run_interval
    workdir = tempfile.mkdtemp(prefix="pass-", dir=workroot)
    try:
        started = time.perf_counter()
        with frames.frame("edge.loop"):
            rebuilt, report = run_ingest(
                inputs.traces, interval, workdir, plan=workload.edge_plan(seed)
            )
        ingest_s = time.perf_counter() - started
        wal_bytes = os.path.getsize(os.path.join(workdir, "gateway", "wal.log"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    started = time.perf_counter()
    deployment = workload.deploy(rebuilt, inputs)
    result = PassResult(
        setup_s=time.perf_counter() - started,
        ingest_s=ingest_s,
        frames=frames,
        traced=tracer is not None,
    )
    result.readings = report.readings
    result.attempted += 1
    if not traces_identical(rebuilt, inputs.traces):
        result.fail("gateway-rebuilt traces differ from the generated traces")

    cluster, pool = deployment.cluster, deployment.pool
    session = pool.session("client", tenant="interactive")
    rng = np.random.default_rng(seed)
    recent: list = []  # tags by last sighting, most recent first
    shed = 0
    try:
        for boundary in range(interval, workload.horizon + 1, interval):
            lo = boundary - interval
            fresh = sorted({tag for trace in rebuilt for tag in trace.tags_read_in(lo, boundary)})
            if fresh:
                seen_now = set(fresh)
                recent = fresh + [tag for tag in recent if tag not in seen_now]
            t0 = time.perf_counter()
            with frames.frame("runtime.boundary"):
                cluster.run(boundary)
            t1 = time.perf_counter()
            result.boundary_s.append(t1 - t0)

            # Probe: the containment snapshot archived at this boundary,
            # for an item read during the interval.
            items = [tag for tag in fresh if tag.kind is TagKind.ITEM]
            probe = (
                items[int(rng.integers(len(items)))]
                if items
                else (recent[0] if recent else rebuilt[0].tag_table[0])
            )
            with frames.frame("serving.query"):
                answer = session.containment(probe, boundary)
            result.freshness_s.append(time.perf_counter() - t0)
            result.attempted += 1
            want = direct_answer(cluster, HistoryRequest(0, "containment", probe, boundary))
            if (answer.site, answer.rows) != want or (items and not answer.rows):
                result.fail(f"probe at boundary {boundary}: {answer} != primary {want}")

            # The client's closed loop: zipf-hot latest-state reads.
            if recent:
                picks = (rng.zipf(ZIPF_A, size=READS_PER_BOUNDARY) - 1) % len(recent)
                for index, pick in enumerate(picks):
                    tag = recent[int(pick)]
                    q0 = time.perf_counter()
                    with frames.frame("serving.query"):
                        if index % 2:
                            session.containment(tag, boundary, k=3)
                        else:
                            session.location(tag, boundary, k=3)
                    result.query_s.append(time.perf_counter() - q0)
                    result.attempted += 1
            # Background audits: range scans over the history so far,
            # within the batch tenant's quota.
            size, every = AUDITS
            if workload.kind == "cold" and recent and boundary // interval % every == 0:
                batch = [
                    HistoryRequest(0, "trajectory" if i % 2 else "dwell", tag, 0, boundary)
                    for i, tag in enumerate(recent[:size])
                ]
                result.attempted += len(batch)
                try:
                    with frames.frame("serving.query"):
                        pool.execute_many(batch, tenant="batch")
                except Backpressure:
                    shed += len(batch)
                    result.failed += len(batch)
            time_reference(result.reference_s)

        # End-of-pass checks and counts (untimed).
        primaries = {node.site: encode_archive(node.archive) for node in cluster.nodes}
        result.attempted += len(deployment.replicas)
        for message in replica_failures(deployment, primaries):
            result.fail(message)
        result.containment_error = cluster.containment_error(inputs.truth)
        result.bytes_by_kind = dict(cluster.network.bytes_by_kind)
        result.counts = _layer_counts(
            workload, inputs, deployment, report, wal_bytes, primaries, shed, result
        )
    finally:
        cluster.close()
    return result


def _layer_counts(workload, inputs, deployment, report, wal_bytes, primaries, shed, result) -> dict:
    cluster, pool = deployment.cluster, deployment.pool
    edge = report.edge_stats
    gateway = report.gateway_stats
    kinds = cluster.network.bytes_by_kind
    stats = pool.stats()
    replication = kinds.get("replica-fetch", 0) + kinds.get("replica-segments", 0)
    replica_bytes = sum(len(encode_archive(r.archive)) for r in deployment.replicas)
    alerts = 0
    f1 = 0.0
    if workload.kind == "cold":
        alerts = sum(len(q.alerts) for node in cluster.nodes for q in node.queries.values())
        f1 = alert_fmeasure(cluster, inputs, workload.run_interval + 10).f1
    failed_queries = stats.rejected + shed
    return {
        "edge.readings": report.readings,
        "edge.pump_rounds": report.pump_rounds,
        "edge.retransmits": sum(s["retransmits"] for s in edge),
        "edge.duplicate_batches": gateway["duplicate_batches"],
        "edge.batches_applied": gateway["batches_applied"],
        "edge.max_pending_readings": max(s["max_pending_readings"] for s in edge),
        "edge.wal_bytes": wal_bytes,
        "runtime.envelopes": cluster.network.total_messages(),
        "distributed.ons_bytes": kinds.get("ons-lookup", 0) + kinds.get("ons-update", 0),
        "distributed.migrate_request_bytes": kinds.get("migrate-request", 0),
        "distributed.inference_state_bytes": kinds.get("inference-state", 0),
        "distributed.query_state_bytes": kinds.get("query-state", 0),
        "core.containment_error": result.containment_error,
        "queries.alerts": alerts,
        "queries.alert_f1": f1,
        "archive.rows": sum(node.archive.row_count() for node in cluster.nodes),
        "archive.bytes": sum(len(blob) for blob in primaries.values()),
        "serving.replication_bytes": replication,
        "serving.replication_amplification": replication / replica_bytes if replica_bytes else 0.0,
        "serving.cache_hit_ratio": stats.hit_rate(),
        "serving.remote_requests": stats.remote_requests,
        "serving.retransmits": stats.retransmits,
        "serving.rejected": stats.rejected,
        "serving.shed": shed,
        "serving.fail_ratio": failed_queries / max(stats.queries, 1),
    }
