"""End-to-end pipeline benchmark: feed → edge → gateway → federation →
archive → replica → frontend, one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload supply-chain --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` alternates untraced passes and traced passes, whose timing
wrappers sit around each layer's public calls (:mod:`tracing`), and
prints the per-layer metrics: self times per traced pass that, with
``runtime.unattributed_s``, sum to the traced wall; the untraced passes
give the tracing overhead.

Inputs are simulated before any timer starts (see :mod:`workloads`):
an untraced run draws ``INPUT_SETS`` input sets from ``--seed`` and
cycles its passes over them, so one set's own luck does not move the
comparison between seeds; a traced run uses the first set only. Passes
run while the next one is expected to end within ``--seconds``, each
followed by set-up-only repeats, so set-up samples spread over the run.
Each timed sample (a boundary, a read, the ingest) is the median of its
times over the passes of its input set, and the percentiles are taken
over those samples (100 boundaries and about 4000 reads per pass), so a
pass a busy host slowed down at one point does not move the result.
Every end-to-end time is then scaled to a reference host speed,
measured by a fixed kernel that runs between boundaries (see
``REFERENCE_S``); the report prints the unscaled figures too. Every
pass checks its outputs (:mod:`pipeline`); a run with a failed check prints
``"correct": false`` and exits 1.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report. The metric names, units and what each per-layer
metric should move are in :mod:`metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: input sets an untraced run cycles its passes over, each simulated from
#: its own seed drawn from ``--seed``. One set's own luck (how many tags
#: the gate prunes, where the exposures fall) moves a cold-chain pass's
#: time by about 10%; spreading a run over several sets keeps that out
#: of the comparison between seeds.
INPUT_SETS = 4

#: the end-to-end times are reported at the host speed at which one
#: ``pipeline.reference_kernel`` call takes this long: each is multiplied
#: by REFERENCE_S / (the run's median kernel time). The host shares its
#: cores with other machines, and its speed drifts by 10-40% over minutes,
#: moving every timing of a run together; the kernel runs once per
#: boundary, outside every timer, so it sees the same drift.
REFERENCE_S = 1e-3

#: set-ups timed per pass (the pass's own plus set-up-only repeats right
#: after it), so that the set-up samples spread over the whole run.
SETUP_SAMPLES = 20


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def table5_bytes(bytes_by_kind: dict) -> dict:
    from pipeline import TABLE5_KINDS

    return {kind: bytes_by_kind.get(kind, 0) for kind in TABLE5_KINDS}


def sample_counts(result) -> tuple:
    return len(result.boundary_s), len(result.freshness_s), len(result.query_s)


def input_seeds(seed: int, count: int) -> list[int]:
    """The seeds of a run's ``count`` input sets; distinct across ``seed``."""
    return [seed * count + k for k in range(count)]


def check_agreement(passes: list) -> None:
    """Every pass agrees with the first on containment error, Table 5
    bytes and the number of timed samples."""
    first = passes[0]
    want = (first.containment_error, table5_bytes(first.bytes_by_kind), sample_counts(first))
    for index, result in enumerate(passes):
        got = (result.containment_error, table5_bytes(result.bytes_by_kind), sample_counts(result))
        if got != want:
            result.fail(
                f"pass {index}: containment error / Table 5 bytes / sample counts "
                f"{got} != {want}"
            )


def measure(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    workroot: str,
    setup_samples: int = SETUP_SAMPLES,
    input_sets: int = INPUT_SETS,
) -> dict:
    """Run passes of ``workload`` for ``seconds``; return the raw results.

    An untraced run cycles its passes over ``input_sets`` input sets and
    runs at least one pass of each. A traced run measures the first set
    only, so that its counts repeat exactly for a seed, and alternates
    untraced and traced passes, starting untraced: the untraced ones are
    the overhead baseline. Passes run while the next one is expected to
    end within ``seconds``.
    """
    from pipeline import run_pass
    from tracing import Tracer

    seeds = input_seeds(seed, input_sets)[: 1 if trace else input_sets]
    inputs = [workload.generate(s) for s in seeds]
    passes = []
    setup = []
    started = time.perf_counter()
    while True:
        k = len(passes) % len(inputs)
        # Start every pass from a collected heap, so no pass pays for the
        # garbage the previous one left.
        gc.collect()
        if trace and len(passes) % 2:
            with Tracer() as tracer:
                result = run_pass(workload, inputs[k], seeds[k], workroot, tracer)
        else:
            result = run_pass(workload, inputs[k], seeds[k], workroot)
        passes.append(result)
        setup.append(result.setup_s)
        for _ in range(setup_samples - 1):
            t0 = time.perf_counter()
            deployment = workload.deploy(inputs[k].traces, inputs[k])
            setup.append(time.perf_counter() - t0)
            deployment.cluster.close()
        elapsed = time.perf_counter() - started
        if len(passes) < max(len(inputs), 2 if trace else 1):
            continue
        if elapsed + elapsed / len(passes) > seconds:
            break

    # Pass i ran input set i % len(inputs).
    groups = [passes[k :: len(inputs)] for k in range(len(inputs))]
    for group in groups:
        check_agreement(group)
    return {
        "inputs": inputs,
        "passes": passes,
        "groups": groups,
        "traced": [p for p in passes if p.traced],
        "untraced_walls": [p.frames.wall() for p in passes if not p.traced],
        "setup": setup,
    }


def across_passes(passes: list, field: str) -> list:
    """Sample ``i`` of the run: the median over passes of each pass's sample ``i``.

    Every pass of one input set does the same work on the same inputs, so a
    sample's median across passes drops the passes a busy host slowed
    down at that point, while the spread over samples (boundaries,
    reads) stays the workload's own.
    """
    import numpy as np

    series = [getattr(p, field) for p in passes]
    # Unequal counts fail check_agreement; compare the common prefix here.
    n = min(len(samples) for samples in series)
    return list(np.median([samples[:n] for samples in series], axis=0))


def run_samples(raw: dict, field: str) -> list:
    """Each input set's samples (medians over its passes), all sets together."""
    return [value for group in raw["groups"] for value in across_passes(group, field)]


def host_scale(raw: dict) -> float:
    """REFERENCE_S over the run's median reference-kernel time."""
    return REFERENCE_S / median([s for p in raw["passes"] for s in p.reference_s])


def unscaled(raw: dict) -> dict:
    """The end-to-end metrics as timed on this host; each input set's
    samples count once."""
    firsts = [group[0] for group in raw["groups"]]
    freshness = run_samples(raw, "freshness_s")
    queries = run_samples(raw, "query_s")
    wall = sum(
        median([p.ingest_s for p in group]) + sum(across_passes(group, "boundary_s"))
        for group in raw["groups"]
    )
    readings = sum(p.readings for p in firsts)
    table5 = sum(sum(table5_bytes(p.bytes_by_kind).values()) for p in firsts)
    return {
        "setup_s": median(raw["setup"]),
        "readings_per_s": readings / wall,
        "freshness_p50_s": percentile(freshness, 50),
        "freshness_p90_s": percentile(freshness, 90),
        "query_p50_ms": 1e3 * percentile(queries, 50),
        "query_p95_ms": 1e3 * percentile(queries, 95),
        "comm_bytes_per_reading": table5 / readings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


#: end-to-end metrics that are not times, so not scaled to the reference.
_UNSCALED = {"comm_bytes_per_reading", "peak_rss_mb"}


def end_to_end(raw: dict) -> dict:
    """:func:`unscaled`, with every time scaled by :func:`host_scale`."""
    scale = host_scale(raw)
    metrics = unscaled(raw)
    for name, value in metrics.items():
        if name == "readings_per_s":
            metrics[name] = value / scale
        elif name not in _UNSCALED:
            metrics[name] = value * scale
    return metrics


#: tracer frames whose self time is reported under another name.
_FRAME_METRICS = {
    "edge.loop": "edge.loop_s",
    "runtime.boundary": "runtime.unattributed_s",
    "serving.query": "serving.query_s",
}


def self_times(tracer) -> dict:
    """Every wrapped call's and frame's self time, by metric name."""
    return {
        _FRAME_METRICS.get(key, key + "_s"): value
        for key, value in tracer.self_time.items()
    }


def per_layer(raw: dict) -> dict:
    from metrics import PER_LAYER

    traced = raw["traced"]
    n = len(traced)
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    for result in traced:
        tracer = result.frames
        for name, value in self_times(tracer).items():
            metrics[name] += value / n
        metrics["runtime.boundary_s"] += tracer.inclusive["runtime.boundary"] / n
        metrics["trace.wall_s"] += tracer.wall() / n
        metrics["queries.tuples_in"] += tracer.calls["queries.push"] / n
        for key, value in tracer.counts.items():
            metrics[key] += value / n
    last = traced[-1].counts
    for name, value in last.items():
        if name in metrics:
            metrics[name] = value
    received = last["edge.batches_applied"] + last["edge.duplicate_batches"]
    metrics["edge.useful_batch_ratio"] = last["edge.batches_applied"] / max(received, 1)
    gated = metrics["core.pruned_tags"] + metrics["core.full_tags"]
    metrics["core.gate_prune_ratio"] = metrics["core.pruned_tags"] / gated if gated else 0.0
    metrics["runtime.unattributed_share"] = (
        metrics["runtime.unattributed_s"] / metrics["trace.wall_s"]
    )
    metrics["sim.generate_s"] = raw["inputs"][0].generate_s
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median(raw["untraced_walls"])
    return metrics


# -- report -------------------------------------------------------------------


def machine_info(workroot: str) -> dict:
    import numpy

    def probe(cmd: list[str]) -> str:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return "unknown"
        return out.stdout.strip() if out.returncode == 0 else "unknown"

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": probe(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "--short", "HEAD"]
        ),
        "workdir_fs": probe(["stat", "-f", "-c", "%T", workroot]),
    }


def spread_line(values) -> str:
    qs = [percentile(values, q) for q in (0, 10, 25, 50, 75, 90, 100)]
    return " ".join(f"{q:.4f}" for q in qs)


def report(workload, raw: dict, metrics: dict, trace: bool, info: dict) -> list[str]:
    from metrics import PER_LAYER, UNITS

    passes = raw["passes"]
    lines = [
        f"perfbench {workload.name}: {json.dumps(workload.describe(), sort_keys=True)}",
        f"machine: {json.dumps(info, sort_keys=True)}",
        f"input sets: {len(raw['inputs'])}; readings "
        f"{[group[0].readings for group in raw['groups']]}, tags "
        f"{[len(inputs.truth.tags()) for inputs in raw['inputs']]}; sim.generate_s "
        f"{[round(inputs.generate_s, 3) for inputs in raw['inputs']]} (untimed)",
        f"passes: {len(passes)} ({len(raw['traced'])} traced); "
        f"freshness samples {sum(len(p.freshness_s) for p in passes)}; "
        f"interactive queries {sum(len(p.query_s) for p in passes)}; "
        f"set-up samples {len(raw['setup'])}",
        f"run_interval (the epoch part of freshness): {workload.run_interval} epochs",
        f"host: reference kernel median {1e3 * REFERENCE_S / host_scale(raw):.4f} ms, "
        f"end-to-end times scaled by {host_scale(raw):.4f} to {1e3 * REFERENCE_S:g} ms",
    ]
    if not trace:
        as_timed = {name: round(value, 6) for name, value in unscaled(raw).items()}
        lines.append(f"as timed on this host (unscaled): {json.dumps(as_timed)}")
    freshness = run_samples(raw, "freshness_s")
    lines.append(
        "freshness per boundary, median over passes, s (min p10 p25 p50 p75 p90 max): "
        + spread_line(freshness)
    )
    queries = run_samples(raw, "query_s")
    lines.append(f"interactive reads: p99 {1e3 * percentile(queries, 99):.4f} ms "
                 f"(reported only: its run-to-run spread exceeds the bound)")
    for index, result in enumerate(passes):
        lines.append(
            f"  pass {index} (set {index % len(raw['inputs'])})"
            f"{' traced' if result.traced else ''}: ingest {result.ingest_s:.3f}s, "
            f"boundaries {sum(result.boundary_s):.3f}s, setup {result.setup_s:.4f}s, "
            f"freshness p50 {percentile(result.freshness_s, 50):.4f}s "
            f"p90 {percentile(result.freshness_s, 90):.4f}s, "
            f"failures {len(result.failures)}"
        )
        lines.extend(f"    FAILED: {message}" for message in result.failures[:5])
    lines.append("serving.fail_ratio (query_fail_ratio): "
                 f"{passes[-1].counts['serving.fail_ratio']:.6f}")
    if trace:
        lines.extend(layer_table(raw, metrics))
    moves = {name: (target, workloads) for name, _, _, target, workloads in PER_LAYER}
    lines.append("metrics:")
    for name, value in metrics.items():
        line = f"  {name:<36} {value:>16.6f} {UNITS[name]}"
        if name in moves:
            target, workloads = moves[name]
            line += f"  -> {target}" + (f" on {', '.join(workloads)}" if workloads else "")
        lines.append(line)
    return lines


def layer_table(raw: dict, metrics: dict) -> list[str]:
    wall = metrics["trace.wall_s"]
    names = {name for result in raw["traced"] for name in self_times(result.frames)}
    times = {name: metrics[name] for name in names}
    lines = ["per-layer self time per traced pass:"]
    for name, value in sorted(times.items(), key=lambda item: -item[1]):
        lines.append(f"  {name:<32} {value:10.4f} s {100 * value / wall:6.2f}%")
    total = sum(times.values())
    lines.append(f"  {'sum of self times':<32} {total:10.4f} s  (traced wall {wall:.4f} s)")
    share = metrics["runtime.unattributed_share"]
    flag = "  ** above the 10% bound **" if share > 0.10 else ""
    lines.append(f"  runtime.unattributed share of wall: {100 * share:.2f}%{flag}")
    lines.append(
        f"  tracing overhead: {metrics['trace.overhead_s']:.4f} s per pass "
        f"(traced {wall:.4f} s vs untraced {median(raw['untraced_walls']):.4f} s)"
    )
    return lines


def run(workload, seed: int, seconds: float, trace: bool, **limits) -> tuple[list[str], dict]:
    """Measure ``workload``; return the report lines and the result object."""
    from metrics import END_TO_END, PER_LAYER, UNITS

    workroot = os.path.join(HERE, ".work")
    os.makedirs(workroot, exist_ok=True)
    raw = measure(workload, seed, seconds, trace, workroot, **limits)
    if trace:
        values = per_layer(raw)
        names = [name for name, *_ in PER_LAYER]
    else:
        values = end_to_end(raw)
        names = [name for name, *_ in END_TO_END]
    metrics = {name: values[name] for name in names}
    lines = report(workload, raw, metrics, trace, machine_info(workroot))
    result = {
        "correct": not any(p.failures for p in raw["passes"]),
        "attempted": sum(p.attempted for p in raw["passes"]),
        "failed": sum(p.failed for p in raw["passes"]),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    return lines, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no program to measure ({ROOT}/src/repro missing)", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    lines, result = run(workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
