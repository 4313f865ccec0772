"""Tests of the end-to-end benchmark itself (run with pytest).

* the metric names and units match ``BENCHMARK.json``;
* each correctness check fails on a tampered input;
* a reduced-size pass of every workload prints every named metric,
  traced and untraced, and the traced self times sum to the traced wall.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [p for p in (os.path.join(ROOT, "src"), HERE) if p not in sys.path]

import pipeline  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from repro.archive.codec import decode_archive, encode_archive  # noqa: E402
from repro.sim.trace import Trace  # noqa: E402
from workloads import WORKLOADS, reduced  # noqa: E402

#: a reduced run: one pass of each of two input sets (traced: an untraced
#: and a traced pass of the first set), two set-ups per pass.
LIMITS = dict(setup_samples=2, input_sets=2)


def benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_names_and_units_match_benchmark_json():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == [
        (name, unit, better) for name, unit, better, _ in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in PER_LAYER
    ]
    assert bench["paths"] == ["perfbench"]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


@pytest.fixture(scope="module")
def cold_inputs():
    workload = reduced(WORKLOADS["cold-chain"])
    return workload, workload.generate(3)


def test_dropped_reading_fails_the_trace_identity(cold_inputs):
    _, inputs = cold_inputs
    trace = inputs.traces[0]
    assert pipeline.traces_identical(inputs.traces, inputs.traces)
    dropped = Trace.from_columns(
        trace.site, trace.layout, trace.model,
        trace.times[1:], trace.tag_ids[1:], trace.readers[1:],
        trace.tag_table, trace.horizon,
    )
    assert not pipeline.traces_identical([dropped] + inputs.traces[1:], inputs.traces)


def test_flipped_replica_byte_fails_the_replica_check(cold_inputs):
    workload, inputs = cold_inputs
    deployment = workload.deploy(inputs.traces, inputs)
    try:
        deployment.cluster.run(4 * workload.run_interval)
        assert pipeline.replica_failures(deployment) == []
        replica = deployment.replicas[0]
        blob = bytearray(encode_archive(replica.archive))
        # Flip the last byte that still decodes to a different archive.
        for index in range(len(blob) - 1, 0, -1):
            blob[index] ^= 0x01
            try:
                tampered = decode_archive(bytes(blob))
            except ValueError:
                blob[index] ^= 0x01
                continue
            if encode_archive(tampered) != encode_archive(replica.archive):
                break
            blob[index] ^= 0x01
        replica.archive = tampered
        assert len(pipeline.replica_failures(deployment)) == 1
    finally:
        deployment.cluster.close()


def test_wrong_probe_answer_is_a_failed_operation(monkeypatch):
    workload = reduced(WORKLOADS["supply-chain"])
    wrong = lambda cluster, request: (None, (("tampered", 1.0),))  # noqa: E731
    monkeypatch.setattr(pipeline, "direct_answer", wrong)
    lines, result = run.run(workload, 1, 0, False, **LIMITS)
    boundaries = workload.horizon // workload.run_interval
    assert not result["correct"]
    assert result["failed"] == boundaries * LIMITS["input_sets"]


def test_pass_disagreement_fails_the_run():
    passes = []
    for inference_bytes in (20, 20, 21):
        result = pipeline.PassResult(setup_s=0.0, ingest_s=0.0)
        result.containment_error = 0.125
        result.bytes_by_kind = {"ons-lookup": 10, "inference-state": inference_bytes}
        passes.append(result)
    run.check_agreement(passes)
    assert [p.failed for p in passes] == [0, 0, 1]


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_reduced_pass_prints_every_metric(name, trace, capsys):
    workload = reduced(WORKLOADS[name])
    lines, result = run.run(workload, 2, 0, trace, **LIMITS)
    expected = [m for m, *_ in (PER_LAYER if trace else END_TO_END)]
    assert result["correct"], lines
    assert result["failed"] == 0
    assert list(result["metrics"]) == expected
    for metric, entry in result["metrics"].items():
        assert entry["unit"] == UNITS[metric]
        assert np.isfinite(entry["value"])
        assert any(line.split()[:1] == [metric] for line in lines), metric
    values = {m: e["value"] for m, e in result["metrics"].items()}
    if trace:
        inclusive = ("runtime.boundary_s", "sim.generate_s", "trace.wall_s", "trace.overhead_s")
        layer_times = [v for m, v in values.items() if m.endswith("_s") and m not in inclusive]
        assert sum(layer_times) == pytest.approx(values["trace.wall_s"], rel=1e-9)
    else:
        assert all(value > 0 for value in values.values())
