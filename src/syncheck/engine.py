"""Multi-queue matching engine, batch and streaming.

Each ready sequence's head is examined once: the signature's matcher either
already holds a pending head from the other member sequence (match both,
advance both cursors) or records this head as pending.  A `Legality` fed
at load and append decides legality, so no third member rank is matched.
Total steps are bounded by the number of occurrences examined, so a batch
check is linear in the message count.
"""
from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Optional, Union

from .model import (
    Deadlock,
    Illegal,
    Legality,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    deadlock_report,
)

Verdict = Union[NoDeadlock, Deadlock, Illegal]


class EngineError(Exception):
    pass


class StepOutcome(Enum):
    PROGRESSED = "progressed"
    QUEUE_EMPTY = "queue-empty"


class Engine:
    def __init__(self, mode: Mode = Mode.ABSTRACT):
        self.mode = mode
        # per-rank state kept as primitive maps; the matching loop is hot
        self._occ: dict = {}  # rank -> list[MessageOccurrence]
        self._cursor: dict = {}  # rank -> int
        self._closed: dict = {}  # rank -> bool
        self._open = 0  # ranks not yet closed; drain() reads it on every event
        self._total = 0  # occurrences loaded or appended
        self._table: dict = {}  # signature -> pending rank, or None
        self._legality = Legality(mode)
        self._queue: deque = deque()
        self._queued: set = set()
        self.steps = 0
        self.matched_pairs = 0
        self._verdict: Optional[Verdict] = None
        self._loaded = False

    # -- introspection ------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self._verdict is not None

    @property
    def verdict(self) -> Optional[Verdict]:
        return self._verdict

    @property
    def table_size(self) -> int:
        return len(self._table)

    @property
    def message_count(self) -> int:
        return self._total

    def ranks(self) -> list:
        return sorted(self._occ)

    def is_closed(self, rank: int) -> bool:
        return self._closed[rank]

    def cursor(self, rank: int) -> int:
        return self._cursor[rank]

    # -- construction -------------------------------------------------------

    def load(self, model: Model, order: Optional[Iterable[int]] = None) -> None:
        """Attach all model sequences to a fresh engine.

        `order` optionally fixes the initial ready-queue order (a permutation
        of the nonempty ranks); default is model order.
        """
        if self._loaded or self._occ:
            raise EngineError("engine already loaded")
        if model.mode is not self.mode:
            raise EngineError(
                f"cannot load a {model.mode.value} model into a {self.mode.value} engine"
            )
        self._loaded = True
        for seq in model.sequences:
            if seq.rank in self._occ:
                raise EngineError(f"duplicate rank {seq.rank}")
            self._occ[seq.rank] = list(seq.occurrences)
            self._legality.add(seq.rank, 0, seq.occurrences)
            self._total += len(seq.occurrences)
            self._cursor[seq.rank] = 0
            self._closed[seq.rank] = seq.closed
            self._open += not seq.closed
        ranks = [s.rank for s in model.sequences if s.occurrences]
        if order is not None:
            order = list(order)
            if sorted(order) != sorted(ranks):
                raise EngineError("order must be a permutation of the nonempty ranks")
            ranks = order
        self._queue.extend(ranks)
        self._queued.update(ranks)

    def append(self, rank: int, occurrences: Iterable[MessageOccurrence]) -> None:
        """Streaming append at a sequence tail; creates the sequence on first use."""
        if self.finished:
            raise EngineError("append after finalization")
        lst = self._occ.get(rank)
        if lst is None:
            lst = self._occ[rank] = []
            self._cursor[rank] = 0
            self._closed[rank] = False
            self._open += 1
        if self._closed[rank]:
            raise EngineError(f"append to closed sequence {rank}")
        occurrences = list(occurrences)
        self._legality.add(rank, len(lst), occurrences)
        was_idle = self._cursor[rank] == len(lst) and rank not in self._queued
        lst.extend(occurrences)
        self._total += len(occurrences)
        if was_idle and occurrences:
            self._queue.append(rank)
            self._queued.add(rank)

    def close(self, rank: int) -> None:
        if self.finished:
            raise EngineError("close after finalization")
        if rank not in self._occ:
            raise EngineError(f"close of unknown rank {rank}")
        if self._closed[rank]:
            raise EngineError(f"sequence {rank} already closed")
        self._closed[rank] = True
        self._open -= 1

    # -- execution ----------------------------------------------------------

    def _run(self, limit: int) -> None:
        """Process up to `limit` ready heads (-1 = until the queue empties)."""
        queue = self._queue
        queued = self._queued
        occ_map = self._occ
        cur_map = self._cursor
        table = self._table
        steps = self.steps
        matched = self.matched_pairs
        done = 0
        try:
            while queue and done != limit:
                done += 1
                rank = queue.popleft()
                queued.discard(rank)
                pos = cur_map[rank]
                sig = occ_map[rank][pos][0]  # MessageOccurrence.signature
                steps += 1
                other = table.get(sig)
                if other is None:  # a queued rank is never the pending one
                    table[sig] = rank
                    continue
                cur_map[other] += 1
                cur_map[rank] = pos + 1
                table[sig] = None
                matched += 1
                # re-enqueue in ascending rank order for reproducible runs
                first, second = (other, rank) if other < rank else (rank, other)
                for nxt in (first, second):
                    if cur_map[nxt] < len(occ_map[nxt]) and nxt not in queued:
                        queue.append(nxt)
                        queued.add(nxt)
        finally:
            self.steps = steps
            self.matched_pairs = matched

    def step(self) -> Union[StepOutcome, Verdict]:
        if self.finished:
            raise EngineError("step on a finished engine")
        reason = self._legality.violation
        if reason is not None:
            self._verdict = Illegal(reason)
            return self._verdict
        if not self._queue:
            return StepOutcome.QUEUE_EMPTY
        self._run(1)
        return StepOutcome.PROGRESSED

    def drain(self) -> Optional[Verdict]:
        """Run steps until the queue empties or a verdict halts the engine.

        Returns None while some sequence is still open (streaming continues);
        otherwise the final verdict.  Legality is judged before matching, so
        an illegal model halts without taking a step once all is closed.
        """
        if self.finished:
            return self._verdict
        reason = self._legality.violation if self._open else self._legality.finish()
        if reason is not None:
            self._verdict = Illegal(reason)
            return self._verdict
        self._run(-1)
        if self._open:
            return None
        if 2 * self.matched_pairs == self._total:  # every occurrence matched
            self._verdict = NoDeadlock()
        else:
            self._verdict = Deadlock(deadlock_report(self._occ, self._cursor))
        return self._verdict


def check(model: Model, order: Optional[Iterable[int]] = None) -> Verdict:
    """One-shot batch check: load and drain."""
    return check_with_engine(model, order=order)[0]


def check_with_engine(model: Model, order: Optional[Iterable[int]] = None):
    """Like :func:`check` but also returns the engine for stats inspection."""
    engine = Engine(model.mode)
    for seq in model.sequences:
        if not seq.closed:
            raise EngineError("batch check requires all sequences closed")
    engine.load(model, order=order)
    verdict = engine.drain()
    assert verdict is not None
    return verdict, engine
