"""Command-line front end.

Exit codes are a stable contract: 0 ok, 1 usage/parse/protocol error,
2 deadlock, 3 illegal model, 4 oracle state cap exceeded.
"""
from __future__ import annotations

import argparse
import functools
import sys
from itertools import chain
from typing import List, Optional

from . import bench as bench_mod
from . import engine as engine_mod
from .engine import Engine, EngineError
from .model import Envelope, Illegal, Mode, Model, NoDeadlock, validate_static
from .oracle import StateCapExceeded, cycle_check, simulate_exhaustive
from .parser import ParseError, decimal, parse_abstract, parse_dsl, parse_model, render_abstract, render_dsl
from .report import build_report, exit_code_for, to_json, to_text
from .signatures import SignatureSpace


class _ParserExit(Exception):
    """The parser stops with exit code `args[0]` and text `args[1]`.

    `main` writes to the streams it is given and returns its exit code, so
    it writes the text to stdout on 0 and to stderr otherwise, and the
    parser neither prints to sys.stdout or sys.stderr nor exits.
    """


class _ArgumentParser(argparse.ArgumentParser):
    # exit code 2 means "deadlock" here, so usage errors must not use it
    def error(self, message):
        raise _ParserExit(1, f"usage error: {message}\n")

    # the help action is the one caller
    def print_help(self, file=None):
        raise _ParserExit(0, self.format_help())


@functools.cache  # one parser for every call: parsing and the commands mutate neither it nor a default
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="syncheck", description="Static deadlock checker for synchronous message-passing models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="check a model file")
    p_check.add_argument("path")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--mode", choices=("auto", "strict", "abstract"), default="auto")
    p_check.add_argument("--validate-only", action="store_true")
    p_check.set_defaults(run=cmd_check)

    p_stream = sub.add_parser("stream", help="check append/close events from stdin")
    p_stream.add_argument("--format", choices=("text", "json"), default="text")
    p_stream.add_argument("--mode", choices=("auto", "strict", "abstract"), default="auto")
    p_stream.set_defaults(run=cmd_stream)

    p_oracle = sub.add_parser("oracle", help="run a ground-truth backend on a model file")
    p_oracle.add_argument("path")
    p_oracle.add_argument("--backend", choices=("simulate", "cycle"), default="simulate")
    p_oracle.add_argument("--cap", type=int, default=10**6)
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.set_defaults(run=cmd_oracle, mode="auto")  # either format

    p_bench = sub.add_parser("bench", help="time the engine against the cycle detector")
    p_bench.add_argument("--pattern", choices=bench_mod.PATTERNS, default="pairs")
    p_bench.add_argument("-P", "--processes", type=int, default=2)
    p_bench.add_argument("-M", "--messages", type=int, default=1000)
    p_bench.add_argument("--seeds", type=int, nargs="+", default=[0])
    p_bench.add_argument("--reps", type=int, default=3)
    p_bench.add_argument("--csv", action="store_true")
    p_bench.set_defaults(run=cmd_bench)

    p_gen = sub.add_parser("gen", help="write a generated model")
    p_gen.add_argument("--pattern", choices=bench_mod.PATTERNS, default="pairs")
    p_gen.add_argument("-P", "--processes", type=int, default=2)
    p_gen.add_argument("-M", "--messages", type=int, default=1)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default=None)
    p_gen.add_argument("--gen-format", choices=("dsl", "abstract"), default="dsl")
    p_gen.set_defaults(run=cmd_gen)
    return parser


def _emit(report: dict, fmt: str, out) -> int:
    """Write `report` to `out` in `fmt`; return its exit code."""
    print(to_json(report) if fmt == "json" else to_text(report), file=out)
    return exit_code_for(report)


def _parse_file(path: str, mode: str):
    with open(path, "r", encoding="utf-8-sig") as f:  # a leading BOM is not text
        text = f.read()
    if mode == "strict":
        return parse_dsl(text)
    if mode == "abstract":
        return parse_abstract(text)
    return parse_model(text)


def _read_model(args, err) -> Optional[Model]:
    """The model in `args.path`, read in `args.mode`, or None once the error
    that stops it is printed."""
    try:
        return _parse_file(args.path, args.mode)
    except (OSError, UnicodeDecodeError, ParseError) as exc:
        print(f"{args.path}: {exc}", file=err)
        return None


def cmd_check(args, out, err, stdin) -> int:
    model = _read_model(args, err)
    if model is None:
        return 1
    if args.validate_only:
        reason = validate_static(model)
        verdict, steps = (NoDeadlock() if reason is None else Illegal(reason)), None
    else:
        verdict, eng = engine_mod.check_with_engine(model)
        steps = eng.steps
    report = build_report(verdict, model.space, messages=model.message_count, steps=steps)
    if args.validate_only and isinstance(verdict, NoDeadlock):
        report["matchedPairs"] = 0  # nothing has been matched, only validated
    return _emit(report, args.format, out)


class _TokenTable(dict):
    """Strict token -> signature, a cache in front of its space's one index
    as a character table is.  A new token is read for syntax only (the
    stream's `Legality` judges its ranks): split at its commas into 3 or 4
    fields, `tag,src,dst[,comm]` with comm 0 when omitted, each a run of
    decimal digits as in the DSL (int() alone would also take `+1`, `1_0`
    and `-0`), and interned through `signature_for`, which rejects a
    self-message.  A malformed token is named here, its checks in this
    order; a field with more digits than int() converts is named by `decimal`."""

    __slots__ = ("_space",)  # a slot reads faster than an instance dict on each new token

    def __init__(self, space: SignatureSpace) -> None:  # empty: dict.__new__ made it
        self._space = space

    def __missing__(self, token: str) -> int:
        fields = token.split(",")
        if len(fields) == 3:
            fields.append("0")
        elif len(fields) != 4:
            raise ValueError(f"expected tag,src,dst[,comm], got {token!r}")
        # named, not mapped: four isdecimal() and four int() calls take 0.66-0.71
        # us against 1.16-1.53 us for all(map(str.isdecimal, fields)) and
        # tuple(map(int, fields)) (timeit, Python 3.11)
        tag, src, dst, comm = fields
        if not (tag.isdecimal() and src.isdecimal() and dst.isdecimal() and comm.isdecimal()):
            raise ValueError(f"expected decimal integers tag,src,dst[,comm], got {token!r}")
        try:
            tag, src, dst, comm = int(tag), int(src), int(dst), int(comm)
        except ValueError:  # more digits than int() converts
            tag, src, dst, comm = map(decimal, fields, Envelope._fields)  # decimal names the field
        # what Envelope._make does, without its length check: 0.20-0.24 us
        # against 0.36-0.44 us for Envelope(tag, src, dst, comm) (timeit, Python
        # 3.11), on every new token
        sig = self[token] = self._space.signature_for(tuple.__new__(Envelope, (tag, src, dst, comm)))
        return sig


def cmd_stream(args, out, err, stdin) -> int:
    space = SignatureSpace()
    tokens = _TokenTable(space)  # strict token -> signature
    table = space.char_table()  # abstract character -> signature; a session is one mode
    engine = Engine(space)
    # the token format; under auto, the first append sets it
    mode = {"strict": Mode.STRICT, "abstract": Mode.ABSTRACT, "auto": None}[args.mode]

    lineno = 0
    try:  # reading a line raises UnicodeDecodeError; an event, ValueError or EngineError
        # a leading BOM is not an event; only the first line can start with one
        lines = iter(stdin)
        first = next(lines, "").removeprefix("\ufeff")
        for lineno, raw in enumerate(chain((first,), lines), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            kind = fields[0]
            if kind == "end":
                if len(fields) > 1:
                    raise ValueError(f"end takes no arguments, got {line!r}")
                break
            if kind not in ("append", "close") or len(fields) < 2:
                raise ValueError(f"unknown event {line!r}")
            if not fields[1].isdecimal():
                raise ValueError(f"expected a decimal rank, got {fields[1]!r}")
            rank = decimal(fields[1], "rank")
            if kind == "append":
                if len(fields) < 3:
                    raise ValueError("append needs at least one token")
                if mode is None:
                    mode = Mode.STRICT if "," in fields[2] else Mode.ABSTRACT
                if mode is Mode.STRICT:
                    engine.append(rank, list(map(tokens.__getitem__, fields[2:])))
                else:  # each character is an occurrence, as in the abstract format
                    engine.append(rank, table.column("".join(fields[2:])))
            else:
                if len(fields) > 2:
                    raise ValueError(f"close takes one rank, got {line!r}")
                engine.close(rank)
            if isinstance(engine.drain(), Illegal):
                break  # never recoverable; later events could only add noise
    except UnicodeDecodeError as exc:  # a ValueError, so caught first
        print(f"stdin: {exc}", file=err)
        return 1
    except (ValueError, EngineError) as exc:
        print(f"stdin:{lineno}: {exc}", file=err)
        return 1

    verdict = engine.drain()  # the one fixed by an event, or an empty stream's
    if verdict is None:  # every event was drained, so some sequence is open
        print(f"protocol error: stream ended with open sequences {engine.open_ranks()}", file=err)
        return 1
    report = build_report(verdict, space, messages=engine.message_count, steps=engine.steps)
    return _emit(report, args.format, out)


def cmd_oracle(args, out, err, stdin) -> int:
    if args.cap < 1:  # only simulate reads the cap, but it is wrong on either backend
        print(f"usage error: argument --cap: must be >= 1, got {args.cap}", file=err)
        return 1
    model = _read_model(args, err)
    if model is None:
        return 1
    if args.backend == "simulate":
        try:
            result = simulate_exhaustive(model, cap=args.cap)
        except StateCapExceeded as exc:
            print(f"{args.path}: {exc}", file=err)
            return 4
        extra = {"confluence": result.confluence_agreed}
    else:
        result = cycle_check(model)
        extra = {"witness": result.witness, "unpaired": result.unpaired}
    report = build_report(result.verdict, model.space, messages=model.message_count, **extra)
    return _emit(report, args.format, out)


def _gen_spec(args, seed: int) -> bench_mod.GenSpec:
    return bench_mod.GenSpec(args.pattern, args.processes, args.messages, seed)


def cmd_bench(args, out, err, stdin) -> int:
    lines = [bench_mod.CSV_HEADER]
    try:
        for seed in args.seeds:
            lines += [row.csv() for row in bench_mod.bench_run(_gen_spec(args, seed), repetitions=args.reps)]
    except ValueError as exc:
        print(f"bench: {exc}", file=err)
        return 1
    widths = ("<8", "<8", ">4", ">8", ">10", ">10", ">10")  # one per CSV field
    for line in lines:
        if not args.csv:  # the CSV fields in columns, an empty one shown as "-"
            line = " ".join(format(field or "-", width) for field, width in zip(line.split(","), widths))
        print(line, file=out)
    return 0


def cmd_gen(args, out, err, stdin) -> int:
    try:
        model = bench_mod.generate(_gen_spec(args, args.seed))
        text = render_dsl(model) if args.gen_format == "dsl" else render_abstract(model)
    except ValueError as exc:
        print(f"gen: {exc}", file=err)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(text)
        except OSError as exc:
            print(f"gen: {exc}", file=err)
            return 1
    else:
        out.write(text)
    return 0


def _stdin_lines():
    """`sys.stdin`'s lines, split at "\n" as on POSIX, decoded as UTF-8 that
    `check` accepts (`sys.stdin` escapes bad bytes in UTF-8 mode or C locale)."""
    for line in sys.stdin.buffer:
        yield line.decode("utf-8")


def main(argv: Optional[List[str]] = None, *, stdin=None, stdout=None, stderr=None) -> int:
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    stdin = stdin if stdin is not None else _stdin_lines()  # read only by `stream`
    try:
        args = _build_parser().parse_args(argv)
    except _ParserExit as stop:
        code, text = stop.args
        (err if code else out).write(text)
        return code
    return args.run(args, out, err, stdin)


if __name__ == "__main__":
    sys.exit(main())
