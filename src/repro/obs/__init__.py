"""Cross-plane telemetry: metrics registry, causal spans, flight recorder.

The :class:`Telemetry` facade bundles the three pieces and hangs off a
process-global slot. The default instance is *disabled*: every
instrumentation site in the hot paths checks ``tel.enabled`` (one
attribute load) or calls ``tel.span(...)`` (which returns a shared
no-op when off), so an untraced run does no telemetry work and —
crucially — issues exactly the same transport commands as before this
subsystem existed. That is what makes the telemetry-on/off bit-identity
invariant hold by construction: tracing observes the planes, it never
participates in them.

Usage::

    from repro.obs import telemetry_session

    with telemetry_session() as tel:
        cluster.run(until=3600)
        tel.dump("demo", path="flight.jsonl")

or imperatively via :func:`install` / :func:`uninstall`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import Iterator

from repro.obs.recorder import FlightRecorder
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS, MetricsRegistry
from repro.obs.spans import NULL_SPAN, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "FlightRecorder",
    "MetricsRegistry",
    "Telemetry",
    "Tracer",
    "get_telemetry",
    "install",
    "telemetry_session",
    "uninstall",
    "write_jsonl",
]


class Telemetry:
    """Registry + tracer + flight recorder behind one enabled flag."""

    def __init__(
        self,
        enabled: bool = True,
        capacity: int = 4096,
        dump_dir: str | None = None,
    ):
        self.enabled = enabled
        self.registry = MetricsRegistry()
        self.recorder = FlightRecorder(capacity)
        self.tracer = Tracer(self.recorder.record)
        self.dump_dir = dump_dir

    # -- spans / states ---------------------------------------------------
    def span(self, plane: str, name: str, **attrs: object):
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(plane, name, **attrs)

    def record_state(self, plane: str, name: str, **attrs: object) -> None:
        if self.enabled:
            self.recorder.record_state(plane, name, **attrs)

    # -- metrics ----------------------------------------------------------
    def counter(self, name: str, **labels: object):
        return self.registry.counter(name, **labels)

    def gauge(self, name: str, **labels: object):
        return self.registry.gauge(name, **labels)

    def histogram(self, name: str, **labels: object):
        return self.registry.histogram(name, **labels)

    # -- dumping ----------------------------------------------------------
    def dump(self, reason: str = "manual", path: str | None = None) -> str | None:
        """Write the flight-recorder window + a final metrics record as
        JSONL. Returns the path written, or None when disabled."""
        if not self.enabled:
            return None
        if path is None:
            base = self.dump_dir or "."
            os.makedirs(base, exist_ok=True)
            path = os.path.join(base, f"flight-{reason}.jsonl")
        write_jsonl(path, self, reason=reason)
        return path


#: The disabled default — never replaced, so `get_telemetry()` is always
#: a cheap global read plus one attribute check at call sites.
_DISABLED = Telemetry(enabled=False, capacity=1)
_ACTIVE: Telemetry = _DISABLED


def get_telemetry() -> Telemetry:
    return _ACTIVE


def install(tel: Telemetry | None = None) -> Telemetry:
    """Make ``tel`` (default: a fresh enabled instance) the process-global
    telemetry and return it."""
    global _ACTIVE
    _ACTIVE = tel if tel is not None else Telemetry()
    return _ACTIVE


def uninstall() -> None:
    global _ACTIVE
    _ACTIVE = _DISABLED


@contextmanager
def telemetry_session(
    capacity: int = 4096, dump_dir: str | None = None
) -> Iterator[Telemetry]:
    tel = install(Telemetry(capacity=capacity, dump_dir=dump_dir))
    try:
        yield tel
    finally:
        uninstall()


def write_jsonl(path: str, tel: Telemetry, reason: str | None = None) -> str:
    """JSONL export: a meta header, every flight-recorder entry, then a
    closing metrics record holding the registry snapshot."""
    with open(path, "w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "reason": reason,
            "entries": len(tel.recorder),
            "total_recorded": tel.recorder.total_recorded,
            "capacity": tel.recorder.capacity,
        }
        fh.write(json.dumps(meta, sort_keys=True) + "\n")
        tel.recorder.write_jsonl(fh)
        metrics = {"type": "metrics", "registry": tel.registry.snapshot()}
        fh.write(json.dumps(metrics, sort_keys=True, default=str) + "\n")
    return path
