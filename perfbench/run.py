"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload check-dsl-random --seed 0 --seconds 20 --trace 0

`--trace 0` measures the end-to-end metrics: set-up (median of SETUP_REPS),
then the measured `syncheck` calls in a child process (`measure.py`) so that
its peak RSS covers them alone.  Times are speed-scaled (`common.SpeedScale`);
the raw medians are printed in the table's notes.  `--trace 1` measures the per-layer metrics:
untraced and traced calls alternate in this process, the spans are written
to `.perfbench/`, and the tracing overhead is their difference.

Every output is checked against the oracle reference; stream outputs are
also checked against a batch `check` of the same model.  A human-readable
table goes first; the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""
from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import tracing
import workloads
from common import WORK, MissingSources, SpeedScale, load_syncheck, median, percentile
from measure import TimedLines, one_call, output_ok

SETUP_REPS = 3
HERE = Path(__file__).resolve().parent

END_TO_END_UNITS = {"call_s": "s", "units_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs")
    return p.parse_args(argv)


def _timed_setups(args):
    """(input, raw set-up times, speed-scaled set-up times)."""
    raw, scaled = [], []
    speed = SpeedScale()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        inp = workloads.setup(args.workload, args.seed, args.size)
        raw.append(time.perf_counter() - start)
        scaled.append(speed.scale(raw[-1]))
    return inp, raw, scaled


def _stream_vs_batch(inp, stream_outputs) -> tuple:
    """(attempted, failed): a batch `check` of the stream's model must give
    the reference, and every stream output must agree with the batch output.
    The batch call and each stream output's comparison are one attempt each."""
    from syncheck.cli import main

    _, code, batch_out, _ = one_call(main, workloads.CHECK, inp.model_path, None)
    failed = 0 if output_ok(code, batch_out, inp.reference) else 1
    batch = _summary(batch_out)
    for out, count in stream_outputs.items():
        same = batch is not None and _summary(out) == batch
        failed += 0 if same else count
    return 1 + sum(stream_outputs.values()), failed


def _summary(stdout: str):
    try:
        return workloads.summarize(json.loads(stdout))
    except (ValueError, KeyError, TypeError):
        return None


def run_untraced(args):
    inp, setup_raw, setup_scaled = _timed_setups(args)
    spec = {
        "kind": inp.kind,
        "model_path": inp.model_path,
        "events_path": inp.events_path,
        "reference": inp.reference,
        "seconds": args.seconds,
    }
    child = subprocess.run(
        [sys.executable, str(HERE / "measure.py"), json.dumps(spec)],
        capture_output=True,
        text=True,
        timeout=args.seconds + 150,
    )
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        raise RuntimeError(f"measure.py exited with {child.returncode}")
    result = json.loads(child.stdout.strip().splitlines()[-1])
    attempted, failed = result["attempted"], result["failed"]
    if inp.kind == workloads.STREAM:
        a, f = _stream_vs_batch(inp, result["outputs"])
        attempted, failed = attempted + a, failed + f
    call_s = median(result["scaled"])
    metrics = {
        "call_s": call_s,
        "units_per_s": inp.units / call_s,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
        "setup_s": median(setup_scaled),
    }
    notes = {
        "calls timed": len(result["times"]),
        "raw call_s (median)": median(result["times"]),
        "raw setup_s (median)": median(setup_raw),
    }
    return inp, attempted, failed, metrics, notes


def _model_bytes_per_occ(path: str) -> float:
    """Bytes a parsed model keeps per occurrence (tracemalloc; not timed)."""
    from syncheck.parser import parse_model

    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = parse_model(text)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return kept / model.message_count


def run_traced(args):
    from syncheck.cli import main

    inp = workloads.setup(args.workload, args.seed, args.size)
    stream = inp.kind == workloads.STREAM

    tracer = tracing.Tracer()
    untraced_times, gaps, outputs = [], [], {}
    engine, traced_out = None, ""
    _, code, warm_out, _ = one_call(main, inp.kind, inp.model_path, inp.events_path)  # warm-up
    attempted, failed = 1, 0 if output_ok(code, warm_out, inp.reference) else 1
    deadline = time.perf_counter() + args.seconds
    pairs = 0
    while pairs < 2 or time.perf_counter() < deadline:
        pairs += 1
        gc.collect()
        elapsed, code, plain_out, lines = one_call(
            main, inp.kind, inp.model_path, inp.events_path, wrap_stdin=TimedLines
        )
        untraced_times.append(elapsed)
        if stream:
            gaps.extend(b - a for a, b in zip(lines.stamps, lines.stamps[1:]))
        failed += 0 if output_ok(code, plain_out, inp.reference) else 1
        outputs[plain_out] = outputs.get(plain_out, 0) + 1
        gc.collect()
        tracer.new_op()
        try:
            t_code, traced_out, engine = tracing.traced_call(tracer, inp.kind, inp.model_path, inp.events_path)
            # the traced decomposition must reproduce the untraced output exactly
            failed += 0 if (t_code, traced_out) == (code, plain_out) else 1
        except Exception as exc:  # a crash is a failed operation
            print(f"traced call raised {exc!r}", file=sys.stderr)
            failed += 1
        attempted += 2
    if stream:
        a, f = _stream_vs_batch(inp, outputs)
        attempted, failed = attempted + a, failed + f

    WORK.mkdir(exist_ok=True)
    tracer.dump(WORK / f"trace-{args.workload}-{args.seed}-{args.size}.spans")
    metrics = tracing.layer_metrics(tracer)
    traced_s = metrics.pop("traced.op_s")
    untraced_s = median(untraced_times)
    try:
        distinct = json.loads(traced_out)["stats"]["distinctSignatures"]
    except (ValueError, KeyError):
        distinct = 0
    steps = engine.steps if engine is not None else 0
    metrics.update(
        {
            "parser.model_bytes_per_occ": 0.0 if stream else _model_bytes_per_occ(inp.model_path),
            "engine.steps": steps,
            "engine.steps_per_occ": steps / inp.n,
            "engine.table_size": engine.table_size if engine is not None else 0,
            "engine.matched_pairs": engine.matched_pairs if engine is not None else 0,
            "signatures.distinct": distinct,
            "report.bytes": len(traced_out.encode()),
            "cli.event_us_p50": percentile(gaps, 50) * 1e6,
            "cli.event_us_p99": percentile(gaps, 99) * 1e6,
            "oracle.cycle_s": inp.oracle_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.overhead_share": (traced_s - untraced_s) / untraced_s,
        }
    )
    return inp, attempted, failed, metrics, {"untraced/traced call pairs": pairs, "untraced call_s": untraced_s}


PER_LAYER_UNITS = {
    "parser.parse_s": "s",
    "parser.share": "ratio",
    "parser.model_bytes_per_occ": "B",
    "model.validate_s": "s",
    "model.share": "ratio",
    "engine.load_s": "s",
    "engine.drain_s": "s",
    "engine.share": "ratio",
    "engine.steps": "count",
    "engine.steps_per_occ": "ratio",
    "engine.table_size": "count",
    "engine.matched_pairs": "count",
    "engine.append_us_p50": "us",
    "engine.append_us_p99": "us",
    "engine.close_us_p50": "us",
    "engine.close_us_p99": "us",
    "engine.drain_us_p50": "us",
    "engine.drain_us_p99": "us",
    "engine.drain_growth": "ratio",
    "signatures.distinct": "count",
    "signatures.stream_intern_s": "s",
    "signatures.share": "ratio",
    "report.build_s": "s",
    "report.emit_s": "s",
    "report.bytes": "B",
    "report.share": "ratio",
    "cli.read_s": "s",
    "cli.event_us_p50": "us",
    "cli.event_us_p99": "us",
    "cli.share": "ratio",
    "oracle.cycle_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.spans_per_op": "count",
}


def main(argv=None) -> int:
    args = _args(argv)
    try:
        load_syncheck()
    except MissingSources as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    inp, attempted, failed, metrics, notes = (run_traced if args.trace else run_untraced)(args)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    print(
        f"# {args.workload} seed={args.seed} n={inp.n} P={inp.processes} events={inp.events} "
        f"input_bytes={inp.input_bytes} verdict={inp.reference['verdict']}"
    )
    for name, value in notes.items():
        print(f"#   {name:<28} {value}")
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>16.6g} {unit}")
    print(f"{'fail_ratio':<30} {failed / attempted:>16.6g} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
