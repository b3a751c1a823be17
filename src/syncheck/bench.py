"""Synthetic model generation and the engine-vs-cycle-detector benchmark."""
from __future__ import annotations

import random
import statistics
import timeit
from dataclasses import dataclass
from typing import List, Optional

from . import engine as engine_mod
from .model import Envelope, MessageOccurrence, Mode, Model, Role, Sequence
from .oracle import cycle_check
from .signatures import SignatureSpace

PATTERNS = ("pairs", "ring", "random")

CSV_HEADER = "backend,pattern,P,M,n,median_ms,steps"

SHUFFLE_WINDOW = 2  # random pattern: each occurrence swaps with one at most this far after it


@dataclass(frozen=True)
class GenSpec:
    pattern: str  # "pairs" | "ring" | "random"
    processes: int
    messages_per_process: int
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.messages_per_process < 1:
            raise ValueError("messages_per_process must be >= 1")
        if self.pattern == "ring":
            if self.processes < 3:
                raise ValueError("ring needs at least 3 processes")
        elif self.processes < 2:
            raise ValueError(f"{self.pattern} needs at least 2 processes")
        if self.pattern == "pairs" and self.processes % 2:
            raise ValueError("pairs needs an even process count")


def generate(spec: GenSpec) -> Model:
    """Deterministic model synthesis.

    pairs: P/2 disjoint pairs exchanging M distinct messages in matching
    order (alternating direction); deadlock-free by construction.
    ring: each process waits for its predecessor before sending onward,
    except process 0 which sends both its messages first; the resulting wait
    cycle deadlocks for any P >= 3.
    random: (P*M)//2 rendezvous between random process pairs with fresh
    signatures, tails jittered within a window of `SHUFFLE_WINDOW`; legal by
    construction, verdict not known a priori.
    """
    P, M = spec.processes, spec.messages_per_process
    occs: List[List[MessageOccurrence]] = [[] for _ in range(P)]
    entries: List[Envelope] = []  # every message is fresh, so its tag is its signature

    def message(src: int, dst: int) -> tuple:
        """The send and the recv occurrence of a fresh message from `src` to `dst`."""
        env = Envelope(tag=len(entries), source=src, destination=dst)
        entries.append(env)
        return MessageOccurrence(env.tag, Role.SEND, env), MessageOccurrence(env.tag, Role.RECV, env)

    if spec.pattern == "pairs":
        for k in range(P // 2):
            a, b = 2 * k, 2 * k + 1
            for m in range(M):
                src, dst = (a, b) if m % 2 == 0 else (b, a)
                send, recv = message(src, dst)
                occs[src].append(send)
                occs[dst].append(recv)
    elif spec.pattern == "ring":
        # Round messages c_0..c_{P-1}: c_0 goes 0 -> P-1, c_i goes i-1 -> i.
        # Process 0 sends both of its messages first; every other process
        # waits for its predecessor before passing onward, so the heads form
        # a full wait cycle and every round deadlocks at its start.
        for _ in range(M):
            first, prev = message(0, P - 1), message(0, 1)
            occs[0] += (first[0], prev[0])
            for i in range(1, P - 1):
                nxt = message(i, i + 1)
                occs[i] += (prev[1], nxt[0])
                prev = nxt
            occs[P - 1] += (prev[1], first[1])
    else:  # random
        rng = random.Random(spec.seed)
        for _ in range((P * M) // 2):
            src = rng.randrange(P)
            dst = rng.randrange(P - 1)
            if dst >= src:
                dst += 1
            send, recv = message(src, dst)
            occs[src].append(send)
            occs[dst].append(recv)
        for lst in occs:
            for i in range(len(lst)):
                j = rng.randint(i, min(i + SHUFFLE_WINDOW, len(lst) - 1))
                lst[i], lst[j] = lst[j], lst[i]

    sequences = [Sequence(rank=i, occurrences=lst) for i, lst in enumerate(occs)]
    return Model(sequences=sequences, mode=Mode.STRICT, space=SignatureSpace._adopt(entries))


@dataclass(frozen=True)
class BenchRow:
    backend: str
    pattern: str
    processes: int
    messages_per_process: int
    n: int
    median_ms: float
    steps: Optional[int]  # engine only

    def csv(self) -> str:
        steps = "" if self.steps is None else str(self.steps)
        return (
            f"{self.backend},{self.pattern},{self.processes},"
            f"{self.messages_per_process},{self.n},{self.median_ms:.3f},{steps}"
        )


def bench_run(spec: GenSpec, repetitions: int = 3) -> List[BenchRow]:
    """Time engine and cycle-detector checks on one generated model.

    Generation, which checks the model's roles, is excluded. Each backend
    runs `repetitions + 1` times under `timeit.repeat`, which turns the
    cyclic GC off around each run; the first run is a warm-up, discarded,
    and the median of the rest is reported, with the engine's step count.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    model = generate(spec)
    steps = None

    def engine_run() -> None:
        nonlocal steps
        steps = engine_mod.check_with_engine(model)[1].steps

    rows = []
    for backend, run in (("engine", engine_run), ("cycle", lambda: cycle_check(model))):
        times = timeit.repeat(run, repeat=repetitions + 1, number=1)[1:]
        rows.append(
            BenchRow(
                backend=backend,
                pattern=spec.pattern,
                processes=spec.processes,
                messages_per_process=spec.messages_per_process,
                n=model.message_count,
                median_ms=statistics.median(times) * 1000.0,
                steps=steps if backend == "engine" else None,
            )
        )
    return rows
