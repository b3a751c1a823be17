"""Multi-queue matching engine: `append`, `close` and `drain`.

Sequences grow by `append` and end by `close`; `drain` matches ready heads
until none is left and, once every sequence is closed, returns the verdict.
`load` adopts every sequence of a complete model as a closed one, so a
batch check is `load` plus one `drain`, and a stream drains after each event.

An occurrence is its signature, an int: each rank's signatures are kept in
one `array('i')` column.  `load` adopts each model sequence's column, the
`array('i')` made with its `Sequence`; a streamed `append` copies.  Each ready
sequence's head is examined once: the signature's matcher either holds a
pending head from the other member sequence (match both, advance both
cursors, drop the pending head) or records this head as pending, so the
table holds at most one pending head per sequence.  Ready sequences wait on
a worklist whose order is free: legality leaves each signature two member
sequences, so a head can only ever match the head of the other member, and
whichever ready head is served first, the same pairs match (the matching
is confluent).  The verdict, the step count, the pending heads and the
report are therefore the same in any order.  Only the violation named for
an illegal model may depend on the append order (model order for `load`),
since the first one met is kept.  After a match, the run of
equal signatures that follows in both sequences is forced and consumed at
once: its first pair by one compare, the rest by slice compares that start
past that pair, so no pair is compared twice.  `Legality` judges legality,
through `validate_static` at `load` and at each append of a stream, so no
third member rank is matched.  Every engine has a signature space,
`Engine(space)`: a stream's `Legality` indexes its one membership table by
signature, and a report reads each blocked head's envelope there.
Once the worklist is empty every unfinished rank is pending, so an empty
table means every occurrence matched.  Total steps are bounded by the
number of occurrences examined, so a batch check is linear in the message
count.
"""
from __future__ import annotations

from array import array
from typing import Optional

from .model import COLUMN_TYPECODE, Deadlock, Illegal, Legality, Model, NoDeadlock, Verdict, deadlock_report, validate_static


def _common_run(a: array, i: int, b: array, j: int) -> int:
    """Length of the longest common prefix of `a[i:]` and `b[j:]`.

    Galloping: compare chunks of doubling size, then halve the first chunk
    that differs.  O(k + 1) work in C and O(log k) Python steps for a
    common prefix of length k.
    """
    end = min(len(a) - i, len(b) - j)
    lo, size = 0, 1
    while lo < end:
        if a[i + lo:i + lo + size] != b[j + lo:j + lo + size]:
            break
        lo, size = lo + size, 2 * size
    else:  # lo passes end only if both tails end in the last chunk
        return min(lo, end)
    # a[i:i+lo] == b[j:j+lo]; the first difference, or the shorter tail's
    # end, lies in the next `size` items
    while size > 1:
        size //= 2
        if a[i + lo:i + lo + size] == b[j + lo:j + lo + size]:
            lo += size
    return lo


class EngineError(Exception):
    pass


class Engine:
    def __init__(self, space):
        self._space = space  # SignatureSpace of the signatures; gives a report its envelopes
        # per-rank state kept as primitive maps; the matching loop is hot
        self._col: dict = {}  # rank -> array('i') of its signatures
        self._cursor: dict = {}  # rank -> int
        self._open: set = set()  # ranks not yet closed; drain() reads it on every event
        self._table: dict = {}  # signature -> the rank pending on it
        self._legality = Legality(space)  # strict or abstract as the space's entries are
        # a rank joins the worklist only when it gains a head while idle or
        # right after its head matched, so no rank is queued twice or while
        # pending; the order it is served in is free
        self._queue: list = []
        self.matched_pairs = 0
        self._verdict: Optional[Verdict] = None
        self._loaded = False

    # -- introspection ------------------------------------------------------

    @property
    def table_size(self) -> int:
        """Pending heads: the blocked ranks at a deadlock, 0 on completion."""
        return len(self._table)

    @property
    def steps(self) -> int:
        """Head examinations: two per matched pair, one per pending head."""
        return 2 * self.matched_pairs + len(self._table)

    @property
    def message_count(self) -> int:
        return sum(map(len, self._col.values()))

    def open_ranks(self) -> list:
        return sorted(self._open)

    # -- construction -------------------------------------------------------

    def load(self, model: Model) -> None:
        """Adopt every model sequence's column as a closed sequence, in model
        order, in a fresh engine, with the model's space and the verdict of
        a `validate_static` violation; no rank can be appended after.  The
        columns are the model's own, so they must not be changed in place."""
        if self._loaded or self._col:
            raise EngineError("engine already loaded")
        self._loaded = True
        self._space = model.space
        reason = validate_static(model)
        self._verdict = None if reason is None else Illegal(reason)
        self._col = {seq.rank: seq.column for seq in model.sequences}
        self._cursor = dict.fromkeys(self._col, 0)
        self._queue.extend(rank for rank, column in self._col.items() if column)

    def append(self, rank: int, signatures) -> None:
        """Streaming append of `signatures`, any iterable of ints, read once;
        creates the sequence on first use.  `Legality` judges the values the
        column received: an `array('i')` as given, anything else as a list."""
        if self._verdict is not None:
            raise EngineError("append after finalization")
        col = self._col.get(rank)
        if col is None:
            if self._loaded:
                raise EngineError(f"append of new rank {rank} to a loaded model")
            col = self._col[rank] = array(COLUMN_TYPECODE)
            self._cursor[rank] = 0
            self._open.add(rank)
        elif rank not in self._open:
            raise EngineError(f"append to closed sequence {rank}")
        start = len(col)
        if type(signatures) is array and signatures.typecode == COLUMN_TYPECODE:
            col.extend(signatures)  # so a long chunk keeps Legality's one C pass
        else:  # a one-shot iterator is read once
            signatures = signatures if type(signatures) is list else list(signatures)
            col.fromlist(signatures)  # any ints, faster than extend() of an array('i')
        self._legality.add(rank, signatures)
        if self._cursor[rank] == start < len(col):  # idle, so not queued
            self._queue.append(rank)

    def close(self, rank: int) -> None:
        if self._verdict is not None:
            raise EngineError("close after finalization")
        if rank not in self._col:
            raise EngineError(f"close of unknown rank {rank}")
        if rank not in self._open:
            raise EngineError(f"sequence {rank} already closed")
        self._open.remove(rank)

    # -- execution ----------------------------------------------------------

    def _run(self) -> None:
        """Process ready heads until the worklist empties, each with the forced
        run that its match starts."""
        queue = self._queue
        col_map = self._col
        cur_map = self._cursor
        table = self._table
        matched = self.matched_pairs
        try:
            while queue:
                rank = queue.pop()
                col = col_map[rank]
                pos = cur_map[rank]
                sig = col[pos]
                other = table.pop(sig, None)
                if other is None:  # a queued rank is never the pending one
                    table[sig] = rank
                    continue
                matched += 1
                pos += 1
                other_col = col_map[other]
                other_pos = cur_map[other] + 1
                # Forced run.  Legality admits at most two member ranks per
                # signature, and drain() halts on a violation before
                # matching, so equal next heads of `rank` and `other` can only
                # match each other.  Neither rank is pending now, and the
                # final cursors do not depend on match order, so the whole
                # common run is matched here.
                if pos < len(col) and other_pos < len(other_col) and col[pos] == other_col[other_pos]:
                    run = 1 + _common_run(col, pos + 1, other_col, other_pos + 1)
                    pos += run
                    other_pos += run
                    matched += run
                cur_map[rank] = pos
                cur_map[other] = other_pos
                if pos < len(col):
                    queue.append(rank)
                if other_pos < len(other_col):
                    queue.append(other)
        finally:
            self.matched_pairs = matched

    def drain(self) -> Optional[Verdict]:
        """Match ready heads until the worklist empties or a verdict halts the engine.

        Returns None while some sequence is still open (streaming continues);
        otherwise the final verdict.  Legality is judged before matching, so
        an illegal model halts without taking a step once all is closed.
        """
        if self._verdict is not None:
            return self._verdict
        reason = self._legality.violation if self._open else self._legality.finish()
        if reason is not None:
            self._verdict = Illegal(reason)
            return self._verdict
        self._run()
        if self._open:
            return None
        if not self._table:  # nothing pends, so every occurrence matched
            self._verdict = NoDeadlock()
        else:
            self._verdict = Deadlock(deadlock_report(self._col, self._cursor, self._space))
        return self._verdict


def check(model: Model) -> Verdict:
    """One-shot batch check: load and drain."""
    return check_with_engine(model)[0]


def check_with_engine(model: Model):
    """Like :func:`check` but also returns the engine for stats inspection."""
    engine = Engine(model.space)
    engine.load(model)
    verdict = engine.drain()
    assert verdict is not None
    return verdict, engine
