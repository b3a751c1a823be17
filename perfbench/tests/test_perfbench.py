"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""
import contextlib
import dataclasses
import io
import json
import re

import pytest

import common
import measure
import run
import tracing
import workloads

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(argv))
    return code, out.getvalue().splitlines()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric_and_no_failures(workload, trace, section):
    code, lines = _run("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny")
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # the human-readable table names every metric with its unit, and the fail ratio
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert re.search(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}$", table, re.M), name
    assert re.search(r"^fail_ratio\s+0 ratio", table, re.M)


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in BENCHMARK["workloads"]] == [s.why for s in workloads.WORKLOADS.values()]
    assert BENCHMARK["paths"] == ["perfbench"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(workload):
    a = workloads.generate_input(workload, 7, "tiny")
    b = workloads.generate_input(workload, 7, "tiny")
    c = workloads.generate_input(workload, 8, "tiny")
    assert (a.text, a.events) == (b.text, b.events)
    assert (a.text, a.events) != (c.text, c.events)
    assert workloads.reference(a) == workloads.reference(b)


def test_stream_closes_follow_first_append_order():
    events = workloads.generate_input("stream-ranks", 5, "tiny").events.splitlines()
    first_append = []
    for line in events:
        kind, rank = line.split()[:2] if line != "end" else (line, None)
        if kind == "append" and rank not in first_append:
            first_append.append(rank)
    closes = [line.split()[1] for line in events if line.startswith("close")]
    assert closes == first_append
    assert first_append != sorted(first_append, key=int)  # the order is seeded, not rank order
    assert events[-1] == "end"
    assert events.index(f"close {closes[0]}") > max(i for i, e in enumerate(events) if e.startswith("append"))


def test_wrong_output_is_a_failure():
    inp = workloads.setup("check-dsl-random", 1, "tiny")
    from syncheck.cli import main

    _, code, out, _ = measure.one_call(main, inp.kind, inp.model_path, None)
    assert measure.output_ok(code, out, inp.reference)
    wrong = dict(inp.reference, matchedPairs=inp.reference["matchedPairs"] + 1)
    assert not measure.output_ok(code, out, wrong)
    assert not measure.output_ok(0 if code else 2, out, inp.reference)
    assert not measure.output_ok(code, out[:-3], inp.reference)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_call_reproduces_the_cli_output_and_spans_round_trip(workload, tmp_path):
    inp = workloads.setup(workload, 2, "tiny")
    from syncheck.cli import main
    from syncheck.engine import Engine

    drain = Engine.drain
    _, code, out, _ = measure.one_call(main, inp.kind, inp.model_path, inp.events_path)
    tracer = tracing.Tracer()
    tracer.new_op()
    t_code, t_out, engine = tracing.traced_call(tracer, inp.kind, inp.model_path, inp.events_path)
    assert (t_code, t_out) == (code, out)
    assert Engine.drain is drain  # the patches are gone after the call
    assert engine is not None and engine.steps == json.loads(out)["stats"]["steps"]
    tracer.dump(tmp_path / "t.spans")
    spans = tracing.read_spans(tmp_path / "t.spans")
    assert spans["names"] == tracer.names
    assert list(spans["start"]) == list(tracer.start) and list(spans["parent"]) == list(tracer.parent)
    assert spans["parent"][0] == -1 and all(p >= 0 for p in spans["parent"][1:])
    names = {spans["names"][i] for i in spans["name"]}
    if inp.kind == workloads.CHECK:
        assert {"cli.read", "parser.parse", "model.validate", "engine.load", "engine.drain", "report.emit"} <= names
    else:
        assert {"cli.read", "signatures.intern", "engine.append", "engine.close", "engine.drain"} <= names


def test_stream_vs_batch_counts_each_comparison_once():
    inp = workloads.setup("stream-ranks", 4, "tiny")
    from syncheck.cli import main

    _, _, good, _ = measure.one_call(main, inp.kind, inp.model_path, inp.events_path)
    assert run._stream_vs_batch(inp, {good: 3}) == (4, 0)
    assert run._stream_vs_batch(inp, {good: 3, good[:-3]: 2}) == (6, 2)
    bad_ref = dict(inp.reference, residual=inp.reference["residual"] + 1)
    assert run._stream_vs_batch(dataclasses.replace(inp, reference=bad_ref), {good: 3}) == (4, 1)


def test_missing_sources_exit_nonzero_without_a_result(monkeypatch, tmp_path):
    monkeypatch.setattr(common, "SRC", tmp_path / "src")
    code, lines = _run("--workload", "stream-ranks", "--seed", "0", "--seconds", "1")
    assert code != 0 and lines == []


def test_recorded_input_properties_match_seed_zero():
    recorded = json.loads((common.ROOT / "perfbench" / "workloads.json").read_text())
    for name in workloads.WORKLOADS:
        assert recorded[name] == workloads.describe(workloads.setup(name, 0))
