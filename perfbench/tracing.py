"""Outside-in tracing of one `syncheck` call, layer by layer.

`traced_call` runs `syncheck.cli.main` itself, as the untraced calls do,
with a span wrapped around each module-level function and method it calls
into a layer (`_patch_points`); stdin lines are read through a wrapper that
makes a span of each read.  A span's name is `<layer>.<what>`, where the
layer is the module that does the work (`cli`, `parser`, `signatures`,
`model`, `engine`, `report`).  A call the program stops making leaves its
span empty, so its figures read 0.  The traced call's output must equal the
untraced output for the same input; `run.py` counts any difference as a
failed operation.

Spans live in memory (parallel arrays) and are written out once, at the end
of the run, by `Tracer.dump`; `read_spans` reads such a file back.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import partial

from common import median, percentile
from measure import one_call
from workloads import STREAM

_ARRAYS = (("name", "i"), ("parent", "i"), ("op", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    """Spans: name, parent span, operation id, start and end (perf_counter s)."""

    def __init__(self) -> None:
        self.names: list = []
        self._name_ids: dict = {}
        for attr, code in _ARRAYS:
            setattr(self, attr, array(code))
        self._open: list = []
        self._op = -1

    def new_op(self) -> int:
        """Start the next operation; spans a failed one left open stay unfinished."""
        self._op += 1
        self._open.clear()
        return self._op

    def begin(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.op.append(self._op)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        """`fn` with a span called `name` around every call."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    def dump(self, path) -> None:
        header = json.dumps({"names": self.names, "count": len(self.start), "arrays": _ARRAYS}).encode()
        with open(path, "wb") as f:
            f.write(len(header).to_bytes(4, "little"))
            f.write(header)
            for attr, _ in _ARRAYS:
                getattr(self, attr).tofile(f)


def read_spans(path) -> dict:
    """A dumped trace: {"names": [...], "name": array, "parent": array, ...}."""
    with open(path, "rb") as f:
        header = json.loads(f.read(int.from_bytes(f.read(4), "little")))
        spans = {"names": header["names"]}
        for attr, code in header["arrays"]:
            spans[attr] = array(code)
            spans[attr].fromfile(f, header["count"])
    return spans


def _patch_points(kind: str) -> list:
    """(owner, attribute, span name) for every call `cli.main` makes into a layer.

    These are the module-level names and methods that `cmd_check` and
    `cmd_stream` (and `engine.check_with_engine`) look up when they run, so
    patching them times the program's own call sequence.  `signature_for` is
    traced in the stream only: in a batch check it runs inside the parse,
    once per occurrence, and is parser time there.
    """
    from syncheck import cli, engine
    from syncheck.signatures import SignatureSpace

    points = [
        (cli, "_parse_file", "cli.read"),  # open and read; the parse inside is parser.parse
        (cli, "parse_model", "parser.parse"),
        (cli, "parse_dsl", "parser.parse"),
        (cli, "parse_abstract", "parser.parse"),
        (engine, "check_with_engine", "engine.check"),
        (engine, "validate_static", "model.validate"),
        (engine.Engine, "load", "engine.load"),
        (engine.Engine, "append", "engine.append"),
        (engine.Engine, "close", "engine.close"),
        (engine.Engine, "drain", "engine.drain"),
        (cli, "build_report", "report.build"),
        (cli, "_emit", "report.emit"),
    ]
    if kind == STREAM:
        points.append((SignatureSpace, "signature_for", "signatures.intern"))
    return points


@contextmanager
def _patched(replacements):
    """Set each (owner, attribute, make) to make(original) for the duration.

    An attribute the program no longer has is left alone, so its span reads 0.
    """
    saved = []
    try:
        for owner, attr, make in replacements:
            original = vars(owner).get(attr)
            if original is None:
                print(f"tracing: {getattr(owner, '__name__', owner)}.{attr} not found, not traced", file=sys.stderr)
                continue
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class TracedLines:
    """A stdin stand-in: every line read is a `cli.read` span."""

    def __init__(self, tracer: Tracer, f):
        self._tracer = tracer
        self._f = f

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.begin("cli.read")
        try:
            return next(self._f)
        finally:
            self._tracer.finish(idx)


def traced_call(tracer: Tracer, kind: str, model_path: str, events_path):
    """One `measure.one_call` of `cli.main` with a span around each call it
    makes into a layer; returns (exit code, stdout, the last Engine it made
    or None)."""
    from syncheck.cli import main
    from syncheck.engine import Engine

    engines = []

    def keep(init):
        def __init__(self, *args, **kwargs):
            engines.append(self)
            init(self, *args, **kwargs)

        return __init__

    replacements = [(owner, attr, partial(tracer.wrap, name)) for owner, attr, name in _patch_points(kind)]
    replacements.append((Engine, "__init__", keep))
    with _patched(replacements):
        root = tracer.begin(f"cli.{kind}")
        try:
            _, code, out, _ = one_call(main, kind, model_path, events_path, partial(TracedLines, tracer))
        finally:
            tracer.finish(root)
    return code, out, engines[-1] if engines else None


LAYERS = ("cli", "parser", "signatures", "model", "engine", "report")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer figures from the spans; each is the median over operations,
    and a layer's share is its self time over the operation's wall time.
    A span's self time is its time minus that of the spans it contains
    (`cli.read` around a batch parse holds `parser.parse`).

    Span kinds a workload never makes (appends in a batch check, parsing in
    a stream) give 0.
    """
    names = tracer.names
    n_ops = tracer._op + 1
    dur = [e - s for s, e in zip(tracer.start, tracer.end)]
    self_time = list(dur)
    for i, p in enumerate(tracer.parent):
        if p >= 0:
            self_time[p] -= dur[i]

    layer_self = [dict.fromkeys(LAYERS, 0.0) for _ in range(n_ops)]
    by_name = [{} for _ in range(n_ops)]  # op -> name -> summed self time
    total = [0.0] * n_ops
    samples: dict = {}  # name -> all self times, all ops
    after_close = [[] for _ in range(n_ops)]  # drains that follow a close
    last_was_close = False
    for i, nid in enumerate(tracer.name):
        name, op = names[nid], tracer.op[i]
        layer_self[op][name.split(".", 1)[0]] += self_time[i]
        by_name[op][name] = by_name[op].get(name, 0.0) + self_time[i]
        samples.setdefault(name, []).append(self_time[i])
        if tracer.parent[i] < 0:
            total[op] = dur[i]
        if name == "engine.drain" and last_was_close:
            after_close[op].append(self_time[i])
        if name in ("engine.close", "engine.append", "engine.drain"):
            last_was_close = name == "engine.close"

    def per_op(name):
        return median([ops.get(name, 0.0) for ops in by_name])

    def us(name, q):
        return percentile(samples.get(name, ()), q) * 1e6

    m = {f"{layer}.share": median([ls[layer] / t for ls, t in zip(layer_self, total)]) for layer in LAYERS}
    m.update(
        {
            "parser.parse_s": median([ls["parser"] for ls in layer_self]),
            "model.validate_s": per_op("model.validate"),
            "engine.load_s": per_op("engine.load"),
            "engine.drain_s": per_op("engine.drain"),
            "engine.append_us_p50": us("engine.append", 50),
            "engine.append_us_p99": us("engine.append", 99),
            "engine.close_us_p50": us("engine.close", 50),
            "engine.close_us_p99": us("engine.close", 99),
            "engine.drain_us_p50": us("engine.drain", 50),
            "engine.drain_us_p99": us("engine.drain", 99),
            "engine.drain_growth": median([_growth(d) for d in after_close]),
            "signatures.stream_intern_s": per_op("signatures.intern"),
            "report.build_s": per_op("report.build"),
            "report.emit_s": per_op("report.emit"),
            "cli.read_s": per_op("cli.read"),
            "traced.op_s": median(total),
            "trace.spans_per_op": len(dur) / n_ops,
        }
    )
    return m


def _growth(drains) -> float:
    """Mean of the last tenth over mean of the first tenth; 0 below ten samples."""
    tenth = len(drains) // 10
    if tenth == 0:
        return 0.0
    first = sum(drains[:tenth]) / tenth
    return sum(drains[-tenth:]) / tenth / first
