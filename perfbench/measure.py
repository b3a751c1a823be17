"""The measured calls of one untraced run, in a process of their own.

`run.py` starts this after set-up, so this process's peak RSS covers only
the `syncheck` calls: set-up and the oracle reference run elsewhere.  Each
call goes through the real entry point, `syncheck.cli.main`, in-process:

    check FILE --format json     (batch workloads)
    stream --format json < FILE  (stream workloads)

Calls repeat until `seconds` have passed (at least MIN_CALLS).  Every
call is timed, the first too: a user's call runs in a fresh process.  Each
time is kept raw and speed-scaled (`common.SpeedScale`).  Every output is
compared with the oracle reference.  The result is one JSON
object on stdout.

    python3 perfbench/measure.py SPEC_JSON
"""
from __future__ import annotations

import gc
import io
import json
import resource
import sys
import time
from array import array

from common import SpeedScale, load_syncheck
from workloads import EXIT_CODES, STREAM, summarize

MIN_CALLS = 3


class TimedLines:
    """A stdin stand-in that records the time of every line read.

    The gap between two reads is the time the CLI spent on the first line's
    event: append or close, plus the drain after it.
    """

    def __init__(self, f):
        self._f = f
        self.stamps = array("d")

    def __iter__(self):
        return self

    def __next__(self):
        self.stamps.append(time.perf_counter())
        return next(self._f)


def call_argv(kind: str, model_path: str) -> list:
    if kind == STREAM:
        return ["stream", "--format", "json"]
    return ["check", model_path, "--format", "json"]


def one_call(main, kind: str, model_path: str, events_path, wrap_stdin=None):
    """One CLI call; returns (seconds, exit code, stdout, the stdin wrapper).

    `wrap_stdin`, for stream calls, makes the iterator the CLI reads from
    the events file (`TimedLines`, or the tracer's); None reads the file.
    """
    out, err = io.StringIO(), io.StringIO()
    stdin = None
    if kind == STREAM:
        with open(events_path, "r", encoding="utf-8") as f:
            stdin = wrap_stdin(f) if wrap_stdin else f
            start = time.perf_counter()
            code = main(call_argv(kind, model_path), stdin=stdin, stdout=out, stderr=err)
            elapsed = time.perf_counter() - start
    else:
        start = time.perf_counter()
        code = main(call_argv(kind, model_path), stdout=out, stderr=err)
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), stdin


def output_ok(code: int, stdout: str, reference: dict) -> bool:
    try:
        return code == EXIT_CODES[reference["verdict"]] and summarize(json.loads(stdout)) == reference
    except (ValueError, KeyError, TypeError):
        return False


def measure(spec: dict) -> dict:
    from syncheck.cli import main

    deadline = time.perf_counter() + spec["seconds"]
    times, scaled, outputs = [], [], {}
    speed = SpeedScale()
    attempted = failed = 0
    while attempted < MIN_CALLS or time.perf_counter() < deadline:
        # every call starts from the same heap, as a fresh process would
        gc.collect()
        attempted += 1
        try:
            elapsed, code, stdout, _ = one_call(main, spec["kind"], spec["model_path"], spec["events_path"])
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            print(f"call {attempted} raised {exc!r}", file=sys.stderr)
            failed += 1
            continue
        if not output_ok(code, stdout, spec["reference"]):
            failed += 1
        outputs[stdout] = outputs.get(stdout, 0) + 1
        times.append(elapsed)
        scaled.append(speed.scale(elapsed))
    return {
        "times": times,
        "scaled": scaled,
        "attempted": attempted,
        "failed": failed,
        "outputs": outputs,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    load_syncheck()
    print(json.dumps(measure(json.loads(sys.argv[1]))))
