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
        self._open: set = set()  # ranks not yet closed; drain() reads it on every event
        self._total = 0  # occurrences loaded or appended
        self._table: dict = {}  # signature -> pending rank, or None
        self._legality = Legality(mode)
        # a rank joins the queue only when it gains a head while idle or right
        # after its head matched, so no rank is queued twice or while pending
        self._queue: deque = deque()
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

    def open_ranks(self) -> list:
        return sorted(self._open)

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
            self.append(seq.rank, seq.occurrences)
            if seq.closed:
                self.close(seq.rank)
        if order is not None:
            order = list(order)
            if sorted(order) != sorted(self._queue):  # the nonempty ranks
                raise EngineError("order must be a permutation of the nonempty ranks")
            self._queue = deque(order)

    def append(self, rank: int, occurrences: Iterable[MessageOccurrence]) -> None:
        """Streaming append at a sequence tail; creates the sequence on first use."""
        if self.finished:
            raise EngineError("append after finalization")
        lst = self._occ.get(rank)
        if lst is None:
            lst = self._occ[rank] = []
            self._cursor[rank] = 0
            self._open.add(rank)
        elif rank not in self._open:
            raise EngineError(f"append to closed sequence {rank}")
        occurrences = list(occurrences)
        self._legality.add(rank, len(lst), occurrences)
        if self._cursor[rank] == len(lst) and occurrences:  # idle, so not queued
            self._queue.append(rank)
        lst.extend(occurrences)
        self._total += len(occurrences)

    def close(self, rank: int) -> None:
        if self.finished:
            raise EngineError("close after finalization")
        if rank not in self._occ:
            raise EngineError(f"close of unknown rank {rank}")
        if rank not in self._open:
            raise EngineError(f"sequence {rank} already closed")
        self._open.remove(rank)

    # -- execution ----------------------------------------------------------

    def _run(self, limit: int) -> None:
        """Process up to `limit` ready heads (-1 = until the queue empties)."""
        queue = self._queue
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
                    if cur_map[nxt] < len(occ_map[nxt]):
                        queue.append(nxt)
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
    engine.load(model, order=order)
    if engine.open_ranks():
        raise EngineError("batch check requires all sequences closed")
    verdict = engine.drain()
    assert verdict is not None
    return verdict, engine
