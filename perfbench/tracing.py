"""Per-layer attribution from outside the program.

:class:`Tracer` patches the public entry points of each layer with
timing wrappers for the length of one traced pass, then restores the
originals. Every wrapped call accumulates its *inclusive* time and its
*self* time (inclusive minus the wrapped calls nested inside it), so the
self times of every frame opened during a pass add up exactly to the
time spent inside the outermost frames — the traced wall. Nothing in
the program under test is edited: the spans live in these wrappers.

Wrappers only count inside a frame the benchmark opened: set-up and the
benchmark's own checks run untimed.

Install the tracer *before* building a cluster: transports keep bound
methods captured at registration time, so a later patch would miss them.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

#: (module, attribute path, metric) — each wrapped public call and the
#: per-layer metric its self time lands in. Several calls may share a
#: metric (e.g. ONS lookup + update).
WRAPPED = (
    ("repro.sim.vendor", "VendorFeed.emit_until", "sim.feed_emit"),
    ("repro.edge.node", "EdgeNode.ingest_line", "edge.ingest_line"),
    ("repro.edge.node", "EdgeNode.pump", "edge.pump"),
    ("repro.edge.gateway", "IngestGateway.handle", "edge.gateway_handle"),
    ("repro.edge.gateway", "IngestGateway.advance", "edge.gateway_advance"),
    ("repro.edge.gateway", "IngestGateway.restart", "edge.gateway_restart"),
    ("repro.edge.gateway", "IngestGateway.finalize", "edge.build_traces"),
    ("repro.edge.gateway", "IngestGateway.build_traces", "edge.build_traces"),
    ("repro.runtime.node", "SiteNode.poll_arrivals", "runtime.poll_arrivals"),
    ("repro.runtime.node", "SiteNode.handle", "runtime.handle"),
    ("repro.runtime.node", "SiteNode.flush_query_handoffs", "runtime.handoff"),
    ("repro.core.service", "StreamingInference.run_at", "core.run"),
    ("repro.core.service", "StreamingInference.export_states", "core.export"),
    ("repro.core.service", "StreamingInference.absorb_state", "core.absorb"),
    ("repro.core.service", "StreamingInference.truncate_history", "core.truncate"),
    ("repro.distributed.ons", "ObjectNamingService.lookup", "distributed.ons"),
    ("repro.distributed.ons", "ObjectNamingService.update", "distributed.ons"),
    # patched where the envelope codec imported it, not where it is defined
    ("repro.runtime.envelope", "centroid_compress", "distributed.centroid"),
    ("repro.queries.compiler", "QueryEngine.push", "queries.push"),
    ("repro.archive.store", "SiteArchive.ingest_service", "archive.append"),
    ("repro.archive.store", "SiteArchive.ingest_alerts", "archive.append"),
    ("repro.serving.replica", "ArchiveReplica.catch_up", "serving.catchup"),
    # replica catch-up's two halves, patched where their callers imported
    # them: the primary encoding a delta, the replica applying it
    ("repro.runtime.node", "encode_archive_delta", "serving.replica_delta"),
    ("repro.serving.replica", "apply_archive_delta", "serving.replica_apply"),
    ("repro.serving.history", "HistoryService.answer", "serving.history"),
)

#: frames the pass opens itself around its own calls into the program;
#: their self time is what no wrapped call inside them accounts for.
FRAMES = ("edge.loop", "runtime.boundary", "serving.query")


class Tracer:
    """Inclusive/self time and call counts per metric, plus return hooks."""

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: accumulators fed by return-value hooks (e.g. RunRecord counts).
        self.counts: dict[str, int] = defaultdict(int)
        self._children: list[float] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # -- timing core --------------------------------------------------------

    def _close(self, metric: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        nested = self._children.pop()
        self.inclusive[metric] += elapsed
        self.self_time[metric] += elapsed - nested
        self.calls[metric] += 1
        if self._children:
            self._children[-1] += elapsed

    @contextmanager
    def frame(self, metric: str):
        """Time a block the benchmark itself runs (an outermost frame)."""
        self._children.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(metric, started)

    def _wrapper(self, original: Callable, metric: str, on_return=None) -> Callable:
        tracer = self

        def timed(*args, **kwargs):
            if not tracer._children:
                return original(*args, **kwargs)
            tracer._children.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(metric, started)
            if on_return is not None:
                on_return(tracer, result)
            return result

        timed.__wrapped__ = original
        return timed

    # -- install / uninstall -------------------------------------------------

    def install(self) -> "Tracer":
        for module_name, path, metric in WRAPPED:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            hook = _RETURN_HOOKS.get(path)
            setattr(owner, attr, self._wrapper(original, metric, hook))
            self._patches.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------------

    def wall(self) -> float:
        """Time inside the outermost frames: what the self times sum to."""
        return sum(self.inclusive[metric] for metric in FRAMES)


def _count_run_record(tracer: Tracer, record) -> None:
    tracer.counts["core.window_rows"] += record.window_rows
    tracer.counts["core.full_tags"] += record.full_tags
    tracer.counts["core.pruned_tags"] += record.pruned_tags


_RETURN_HOOKS = {"StreamingInference.run_at": _count_run_record}
