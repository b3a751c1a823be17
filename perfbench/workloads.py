"""Seeded workload inputs and their oracle reference answers.

Every input is a pure function of (workload, seed, size).  The reference
answer comes from `oracle.cycle_check` run on the generator's own `Model`,
never from the engine and never from the parser's reading of the text, so a
parser or engine fault shows up as a mismatch.

Run `python3 perfbench/workloads.py` to print each workload's input
properties at seed 0 (the table kept in `workloads.json`).
"""
from __future__ import annotations

import json
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from common import WORK, load_syncheck

CHECK, STREAM = "check", "stream"
EXIT_CODES = {"ok": 0, "deadlock": 2, "illegal": 3}
_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"


@dataclass(frozen=True)
class Spec:
    kind: str  # CHECK or STREAM
    why: str
    full: dict  # generator arguments at benchmark size
    tiny: dict  # generator arguments for the smoke test


WORKLOADS = {
    "check-abstract-pairs": Spec(
        CHECK,
        "abstract pairs, 8 signatures, 5*10^5 occurrences: the engine's matching loop does about a "
        "third of the work, parsing most of the rest",
        full={"n": 5 * 10**5, "processes": 8},
        tiny={"n": 400, "processes": 8},
    ),
    "check-dsl-random": Spec(
        CHECK,
        "strict DSL, ~2.5*10^4 signatures, deadlocks within ~100 engine steps: parse and legality "
        "dominate and the engine is bypassed",
        full={"n": 51200, "processes": 64},
        tiny={"n": 640, "processes": 64},
    ),
    "stream-ranks": Spec(
        STREAM,
        "8000 ranks appended round-robin, then closed in first-append order: incremental "
        "append/close/drain, with the close/drain cost that grows with the closed-rank count",
        full={"processes": 8000, "per_rank": 12},
        tiny={"processes": 40, "per_rank": 12},
    ),
}

TOKENS_PER_APPEND = 4


@dataclass
class Generated:
    model: object  # syncheck Model, built by the generator, not parsed
    text: str  # the model file
    events: Optional[str]  # stream workloads: the stdin event lines
    label: Callable  # BlockedEntry -> the report's signature label


def _envelope_label(entry) -> str:
    env = entry.envelope
    return f"{env.tag},{env.source},{env.destination},{env.communicator}"


def abstract_pairs(seed: int, n: int, processes: int) -> Generated:
    """P/2 pairs; each pair repeats its own two characters, so the model has
    P signatures and completes.  The seed picks the characters and which
    ranks pair up."""
    sc = load_syncheck()
    from syncheck.model import MessageOccurrence, Mode, Model, Sequence

    per_rank, odd = divmod(n, processes)
    if odd or per_rank % 2 or processes % 2:
        raise ValueError("n must be a multiple of 2*processes, processes even")
    rng = random.Random(seed)
    chars = rng.sample(_ALPHABET, processes)
    ranks = rng.sample(range(processes), processes)
    space = sc.SignatureSpace()
    char_of = {}
    rows = {}
    for k in range(processes // 2):
        a, b = chars[2 * k], chars[2 * k + 1]
        occ_a = MessageOccurrence(space.intern_character(a))
        occ_b = MessageOccurrence(space.intern_character(b))
        char_of[occ_a.signature], char_of[occ_b.signature] = a, b
        for rank in ranks[2 * k : 2 * k + 2]:
            rows[rank] = ([occ_a, occ_b] * (per_rank // 2), (a + b) * (per_rank // 2))
    order = sorted(rows)
    model = Model([Sequence(r, rows[r][0]) for r in order], Mode.ABSTRACT, space)
    text = "".join(f"P{r}: {rows[r][1]}\n" for r in order)
    return Generated(model, text, None, lambda entry: char_of[entry.signature])


def dsl_random(seed: int, n: int, processes: int) -> Generated:
    """`bench.generate(random)`: random legal rendezvous with fresh envelopes."""
    load_syncheck()
    from syncheck.bench import GenSpec, generate
    from syncheck.parser import render_dsl

    model = generate(GenSpec("random", processes, n // processes, seed=seed))
    return Generated(model, render_dsl(model), None, _envelope_label)


def stream_ranks(seed: int, processes: int, per_rank: int) -> Generated:
    """`bench.generate(pairs)` sent as strict `tag,src,dst` tokens.

    Appends of TOKENS_PER_APPEND tokens go round-robin over a seeded rank
    order; then every rank is closed in that same (first-append) order, and
    the stream ends.  Closing in first-append order keeps the cost of a
    drain after a close growing with the number of closed ranks visible; a
    random close order would hide it.
    """
    load_syncheck()
    from syncheck.bench import GenSpec, generate
    from syncheck.parser import render_dsl

    model = generate(GenSpec("pairs", processes, per_rank))
    order = random.Random(seed).sample([s.rank for s in model.sequences], len(model.sequences))
    tokens = {
        s.rank: [f"{o.envelope.tag},{o.envelope.source},{o.envelope.destination}" for o in s.occurrences]
        for s in model.sequences
    }
    lines = []
    for start in range(0, max(map(len, tokens.values())), TOKENS_PER_APPEND):
        for rank in order:
            chunk = tokens[rank][start : start + TOKENS_PER_APPEND]
            if chunk:
                lines.append(f"append {rank} {' '.join(chunk)}")
    lines.extend(f"close {rank}" for rank in order)
    lines.append("end")
    return Generated(model, render_dsl(model), "\n".join(lines) + "\n", _envelope_label)


GENERATORS = {
    "check-abstract-pairs": abstract_pairs,
    "check-dsl-random": dsl_random,
    "stream-ranks": stream_ranks,
}


def generate_input(name: str, seed: int, size: str = "full") -> Generated:
    spec = WORKLOADS[name]
    return GENERATORS[name](seed, **(spec.full if size == "full" else spec.tiny))


def reference(gen: Generated) -> dict:
    """The expected report fields, from the cycle-check oracle."""
    load_syncheck()
    from syncheck.model import Deadlock, NoDeadlock
    from syncheck.oracle import cycle_check

    verdict = cycle_check(gen.model).verdict
    n = gen.model.message_count
    if isinstance(verdict, NoDeadlock):
        return {"verdict": "ok", "blocked": [], "matchedPairs": n // 2, "residual": 0}
    if isinstance(verdict, Deadlock):
        rep = verdict.report
        return {
            "verdict": "deadlock",
            "blocked": [[b.rank, b.position, gen.label(b)] for b in sorted(rep.blocked)],
            "matchedPairs": rep.matched_pairs,
            "residual": rep.residual,
        }
    return {"verdict": "illegal", "blocked": [], "matchedPairs": 0, "residual": 0}


def summarize(report: dict) -> dict:
    """The report fields compared against the reference."""
    return {
        "verdict": report["verdict"],
        "blocked": [[b["process"], b["position"], b["signature"]] for b in report["blocked"]],
        "matchedPairs": report["matchedPairs"],
        "residual": report["residual"],
    }


@dataclass
class Input:
    """A workload's files on disk plus what the benchmark knows about them."""

    workload: str
    kind: str
    seed: int
    model_path: str
    events_path: Optional[str]
    reference: dict
    n: int
    processes: int
    distinct_signatures: int
    events: int  # stream events, 0 for batch workloads
    input_bytes: int  # the file the measured call reads
    oracle_s: float  # time of the reference computation

    @property
    def units(self) -> int:
        """What one measured call consumes: occurrences, or stream events."""
        return self.events if self.kind == STREAM else self.n


def setup(name: str, seed: int, size: str = "full") -> Input:
    """Generate, render, write the input files, and compute the reference."""
    gen = generate_input(name, seed, size)
    start = time.perf_counter()
    ref = reference(gen)
    oracle_s = time.perf_counter() - start
    out = WORK / f"{name}-{seed}-{size}"
    out.mkdir(parents=True, exist_ok=True)
    model_path = out / "model.txt"
    model_path.write_text(gen.text, encoding="utf-8")
    events_path = None
    if gen.events is not None:
        events_path = out / "events.txt"
        events_path.write_text(gen.events, encoding="utf-8")
    measured_bytes = len((gen.events if gen.events is not None else gen.text).encode())
    return Input(
        workload=name,
        kind=WORKLOADS[name].kind,
        seed=seed,
        model_path=str(model_path),
        events_path=None if events_path is None else str(events_path),
        reference=ref,
        n=gen.model.message_count,
        processes=len(gen.model.sequences),
        distinct_signatures=len(gen.model.space),
        events=0 if gen.events is None else gen.events.count("\n"),
        input_bytes=measured_bytes,
        oracle_s=oracle_s,
    )


def describe(inp: Input) -> dict:
    """Input properties as recorded in workloads.json."""
    return {
        "seed": inp.seed,
        "kind": inp.kind,
        "n": inp.n,
        "processes": inp.processes,
        "input_bytes": inp.input_bytes,
        "distinct_signatures": inp.distinct_signatures,
        "events": inp.events,
        "expected_verdict": inp.reference["verdict"],
        "why": WORKLOADS[inp.workload].why,
    }


def main() -> int:
    table = {name: describe(setup(name, 0)) for name in WORKLOADS}
    print(json.dumps(table, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
