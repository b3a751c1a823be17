"""Multi-queue matching engine, batch and streaming.

Each ready sequence's head is examined once: the signature's matcher either
already holds a pending head from the other member sequence (match both,
advance both cursors) or records this head as pending.  Matchers remember
at most two member ranks forever; a third distinct rank is a legality
violation.  Total steps are bounded by the number of occurrences examined,
so a batch check is linear in the message count.
"""
from __future__ import annotations

from collections import deque
from enum import Enum
from typing import Iterable, Optional, Union

from .model import (
    BlockedEntry,
    Deadlock,
    DeadlockReport,
    Illegal,
    IllegalReason,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    Role,
    validate_static,
)

Verdict = Union[NoDeadlock, Deadlock, Illegal]


class EngineError(Exception):
    pass


class StepOutcome(Enum):
    PROGRESSED = "progressed"
    QUEUE_EMPTY = "queue-empty"


# Per-signature matcher record, kept as a bare list for speed in the hot
# loop: [member ranks (<= 2), pending rank, pending position, matched count].
MEMBERS, PENDING_RANK, PENDING_POS, MATCHED = range(4)


_QUEUE_EMPTY = object()  # internal _run result


class Engine:
    def __init__(self, mode: Mode = Mode.ABSTRACT):
        self.mode = mode
        # per-rank state kept as primitive maps; the matching loop is hot
        self._occ: dict = {}  # rank -> list[MessageOccurrence]
        self._cursor: dict = {}  # rank -> int
        self._closed: dict = {}  # rank -> bool
        self._open = 0  # ranks not yet closed; drain() reads it on every event
        self._total = 0  # occurrences loaded or appended
        self._table: dict = {}  # signature -> _Matcher
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
        if self.mode is Mode.STRICT:
            for occ in occurrences:
                if occ.envelope is None:
                    raise EngineError("strict engine requires envelope-bearing occurrences")
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

    def _run(self, limit: int):
        """Process up to `limit` ready heads (-1 = until the queue empties).

        Returns _QUEUE_EMPTY, a halting Verdict, or None when the limit was
        reached with the queue still nonempty.
        """
        queue = self._queue
        queued = self._queued
        occ_map = self._occ
        cur_map = self._cursor
        table = self._table
        strict = self.mode is Mode.STRICT
        send, recv = Role.SEND, Role.RECV
        steps = self.steps
        matched = self.matched_pairs
        done = 0
        try:
            while queue:
                if done == limit:
                    return None
                done += 1
                rank = queue.popleft()
                queued.discard(rank)
                pos = cur_map[rank]
                occ = occ_map[rank][pos]
                sig = occ[0]  # MessageOccurrence.signature
                steps += 1

                if strict:
                    role = occ[1]
                    env = occ[2]
                    if role is send and rank != env[1]:
                        return self._halt_illegal(
                            sig, (rank,),
                            f"send at rank {rank} pos {pos} but envelope source is {env.source}",
                        )
                    if role is recv and rank != env[2]:
                        return self._halt_illegal(
                            sig, (rank,),
                            f"recv at rank {rank} pos {pos} but envelope destination is {env.destination}",
                        )

                matcher = table.get(sig)
                if matcher is None:
                    matcher = table[sig] = [[rank], None, None, 0]
                    members = matcher[0]
                else:
                    members = matcher[0]
                    if rank not in members:
                        if len(members) == 2:
                            return self._halt_illegal(
                                sig,
                                tuple(sorted(members + [rank])),
                                f"signature appears in more than two sequences: {sorted(members + [rank])}",
                            )
                        members.append(rank)

                other = matcher[1]
                if other is not None and other != rank:
                    cur_map[other] += 1
                    cur_map[rank] = pos + 1
                    matcher[1] = None
                    matcher[2] = None
                    matcher[3] += 1
                    matched += 1
                    # re-enqueue in ascending rank order for reproducible runs
                    first, second = (other, rank) if other < rank else (rank, other)
                    for nxt in (first, second):
                        if cur_map[nxt] < len(occ_map[nxt]) and nxt not in queued:
                            queue.append(nxt)
                            queued.add(nxt)
                else:
                    matcher[1] = rank
                    matcher[2] = pos
            return _QUEUE_EMPTY
        finally:
            self.steps = steps
            self.matched_pairs = matched

    def step(self) -> Union[StepOutcome, Verdict]:
        if self.finished:
            raise EngineError("step on a finished engine")
        if not self._queue:
            return StepOutcome.QUEUE_EMPTY
        result = self._run(1)
        if result is None or result is _QUEUE_EMPTY:
            return StepOutcome.PROGRESSED  # exactly one head was processed
        return result

    def drain(self) -> Optional[Verdict]:
        """Run steps until the queue empties or a verdict halts the engine.

        Returns None while some sequence is still open (streaming continues);
        otherwise the final verdict.
        """
        if self.finished:
            return self._verdict
        result = self._run(-1)
        if result is not _QUEUE_EMPTY:
            return result  # halted with a verdict
        if self._open:
            return None
        if 2 * self.matched_pairs == self._total:  # every occurrence matched
            self._verdict = NoDeadlock()
        else:
            self._verdict = Deadlock(self._report())
        return self._verdict

    def _halt_illegal(self, sig: int, ranks: tuple, message: str) -> Verdict:
        self._verdict = Illegal(IllegalReason(signature=sig, ranks=ranks, message=message))
        return self._verdict

    def _report(self) -> DeadlockReport:
        blocked = []
        total = 0
        residual = 0
        for rank in sorted(self._occ):
            lst = self._occ[rank]
            cur = self._cursor[rank]
            total += len(lst)
            residual += len(lst) - cur
            if cur < len(lst):
                occ = lst[cur]
                blocked.append(BlockedEntry(rank, cur, occ.signature, occ.envelope))
        return DeadlockReport(
            blocked=tuple(blocked),
            matched_pairs=self.matched_pairs,
            residual=residual,
            message_count=total,
        )


def check(model: Model, order: Optional[Iterable[int]] = None) -> Verdict:
    """One-shot batch check: static validation, then load and drain."""
    return check_with_engine(model, order=order)[0]


def check_with_engine(model: Model, order: Optional[Iterable[int]] = None):
    """Like :func:`check` but also returns the engine for stats inspection."""
    engine = Engine(model.mode)
    for seq in model.sequences:
        if not seq.closed:
            raise EngineError("batch check requires all sequences closed")
    reason = validate_static(model)
    if reason is not None:
        return Illegal(reason), engine
    engine.load(model, order=order)
    verdict = engine.drain()
    assert verdict is not None
    return verdict, engine
