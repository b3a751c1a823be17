"""Core domain types: envelopes, occurrences, sequences, models, verdicts.

A "signature" is a plain nonnegative int issued densely by a
:class:`~syncheck.signatures.SignatureSpace`.  Every sequence is one
``array('i')`` column of signatures; a parsed occurrence's envelope is its
signature's entry in the space and its role follows from the rank (a send
sits at its envelope's source).  API-built :class:`MessageOccurrence` lists
become columns when built, and a strict `Model` reads each occurrence once
for its role and endpoints.  A `Model` is fixed once built, a tuple of
frozen sequences, so the trace of its first role or endpoint violation
always names one of its own sequences; `validate_static` reads a complete
model's legality, and the engine adopts its columns, which must not be
changed in place.

`Legality` reads each column's distinct signatures once, in order.  A
complete column of at least `_TRACKED_MIN` occurrences whose signatures are
all below 128 (every column of an ASCII abstract model, say) yields them
from one C pass of `str.translate` over its UTF-32 text; any other column
from `dict.fromkeys(column)`.
"""
from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Union

# The typecode of every signature column.  Signatures are dense, below the
# size of their space, so 4 bytes hold every one a process can issue.
COLUMN_TYPECODE = "i"
if array(COLUMN_TYPECODE).itemsize != 4:
    raise ImportError(f"array({COLUMN_TYPECODE!r}) items are not 4 bytes wide on this platform")
# UTF-32 in the byte order of a column's items.  A signature is below
# 0x110000, since there are no more distinct characters than that, and
# surrogatepass encodes the signatures from 0xD800 to 0xDFFF.
_UTF32_NATIVE = "utf-32-le" if sys.byteorder == "little" else "utf-32-be"


class Role(Enum):
    SEND = "send"
    RECV = "recv"
    UNSPECIFIED = "unspecified"


class Mode(Enum):
    STRICT = "strict"
    ABSTRACT = "abstract"


class Envelope(NamedTuple):
    """The four-integer identity of a point-to-point message kind."""

    tag: int
    source: int
    destination: int
    communicator: int = 0


def check_envelope(env: Envelope) -> None:
    """Reject a non-`Envelope`, and envelopes with non-integer fields,
    negatives, or self-messages; plain ints pass a quick test first."""
    if type(env) is Envelope:
        tag, src, dst, comm = env
        if (
            type(tag) is type(src) is type(dst) is type(comm) is int
            and tag >= 0 and src >= 0 and dst >= 0 and comm >= 0
            and src != dst
        ):
            return
    elif not isinstance(env, Envelope):
        raise TypeError(f"expected an Envelope, got {type(env).__name__} {env!r}")
    for name, value in zip(env._fields, env):
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"envelope {name} must be a nonnegative integer, got {value!r}")
    if env.source == env.destination:
        raise ValueError(f"self-message: source == destination == {env.source}")


class MessageOccurrence(NamedTuple):
    """One send/recv statement; the 'character' of the string abstraction."""

    signature: int
    role: Role = Role.UNSPECIFIED
    envelope: Optional[Envelope] = None


@dataclass(frozen=True)
class Sequence:
    """One process's complete, ordered occurrences, given as exactly one of a
    `column` of signatures and API-built `occurrences`, which are kept for the
    `Model`'s trace.  Either way `column` becomes an `array('i')` here.
    A growing sequence lives only in an `Engine`."""

    rank: int
    occurrences: Optional[list] = None  # list[MessageOccurrence]
    column: Optional[array] = None

    def __post_init__(self) -> None:
        if (self.occurrences is None) == (self.column is None):
            raise ValueError(f"Sequence {self.rank} takes exactly one of occurrences and column")
        column = self.column if self.occurrences is None else [occ.signature for occ in self.occurrences]
        if type(column) is not array or column.typecode != COLUMN_TYPECODE:
            object.__setattr__(self, "column", array(COLUMN_TYPECODE, column))

    def __len__(self) -> int:
        return len(self.column)


@dataclass(frozen=True)
class Model:
    """A tuple of sequences, from any iterable, with pairwise-distinct ranks,
    plus their signature space; fixed once built.  In strict mode its
    occurrences are traced once, here."""

    sequences: tuple  # tuple[Sequence, ...]
    mode: Mode
    space: "object" = None  # SignatureSpace; untyped to avoid an import cycle

    def __post_init__(self) -> None:
        sequences = tuple(self.sequences)
        ranks = [s.rank for s in sequences]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate process ranks in model: {ranks}")
        object.__setattr__(self, "sequences", sequences)
        object.__setattr__(self, "_trace", _trace_of(sequences, self.mode is Mode.STRICT))

    @property
    def message_count(self) -> int:
        return sum(len(s) for s in self.sequences)


def _trace_of(sequences: tuple, strict: bool) -> Optional[tuple]:
    """The first sequence that breaks a role or the endpoint rule, from one
    read of each API-built occurrence or bare column, a sequence's own role
    violation first: (its index, that violation or None, the position of its
    first member off its signature's first envelope's endpoints, that
    envelope); None if none does."""
    first: dict = {}  # signature -> the first envelope seen with it
    send, recv = Role.SEND, Role.RECV
    for index, seq in enumerate(sequences):
        rank, off = seq.rank, None
        if strict and seq.occurrences is not None:
            for pos, (sig, role, env) in enumerate(seq.occurrences):
                if env is None:
                    message = f"strict-mode occurrence at rank {rank} pos {pos} has no envelope"
                elif role is send and rank != env[1]:
                    message = f"send at rank {rank} pos {pos} but envelope source is {env[1]}"
                elif role is recv and rank != env[2]:
                    message = f"recv at rank {rank} pos {pos} but envelope destination is {env[2]}"
                else:
                    env = first.setdefault(sig, env)
                    if off is None and rank != env[1] and rank != env[2]:
                        off = index, None, pos, env
                    continue
                return index, IllegalReason(sig, (rank,), message), None, None
            if off is not None:
                return off
        elif first:  # no envelope is known before a sequence built from occurrences
            for pos, env in enumerate(map(first.get, seq.column)):
                if env is not None and rank != env[1] and rank != env[2]:
                    return index, None, pos, env
    return None


class BlockedEntry(NamedTuple):
    rank: int
    position: int
    signature: int
    envelope: Optional[Envelope] = None


@dataclass(frozen=True)
class DeadlockReport:
    blocked: tuple  # tuple[BlockedEntry, ...], sorted by rank
    matched_pairs: int
    residual: int
    message_count: int

    def __post_init__(self) -> None:
        # conservation: every occurrence is either matched (in a pair) or residual
        assert 2 * self.matched_pairs + self.residual == self.message_count


@dataclass(frozen=True)
class IllegalReason:
    signature: Optional[int]
    ranks: tuple  # tuple[int, ...]
    message: str


@dataclass(frozen=True)
class NoDeadlock:
    pass


@dataclass(frozen=True)
class Deadlock:
    report: DeadlockReport


@dataclass(frozen=True)
class Illegal:
    reason: IllegalReason


Verdict = Union[NoDeadlock, Deadlock, Illegal]


# The shortest column whose distinct signatures `_tracked_distinct` finds.
# Timed against `dict.fromkeys(column)` on `array('i')` columns of the
# signatures i % d (timeit, best of 5 and the least of 3 processes, Python
# 3.11):
#
#   occurrences |  d = 8: pass  fromkeys | d = 128: pass  fromkeys
#            64 |       2.4 us    2.1 us |      10.3 us    2.7 us
#           128 |       2.5 us    3.8 us |      22.3 us    6.1 us
#           256 |       2.8 us    7.4 us |      22.6 us    9.2 us
#           512 |       3.2 us   14.1 us |      20.7 us   15.3 us
#           768 |       3.6 us   20.9 us |      20.4 us   21.5 us
#         1,024 |       4.0 us   28.5 us |      21.2 us   27.8 us
#         2,048 |       5.9 us   60.0 us |      22.3 us   53.0 us
#
# The pass costs a fixed 2.3 us or so plus about 140 ns per distinct
# signature, at most 128 of them; `dict.fromkeys` about 26 ns per
# occurrence.  With few distinct signatures the pass wins from about 100
# occurrences, but a column that holds most of the 128 signatures pays
# their lookups and wins only from about 800.  From 1,024 the pass wins for
# both shapes; a shorter column has at most 25 us to gain.
_TRACKED_MIN = 1024


def _tracked_distinct(signatures) -> Optional[dict]:
    """The distinct signatures of `signatures`, in order of first appearance,
    as the keys of a dict, when it is an `array('i')` column of at least
    `_TRACKED_MIN` occurrences all in range(128); None otherwise.

    The column's native UTF-32 text is ASCII exactly then, a flag that
    `isascii` reads in O(1) (a signature of 0x110000 or more, or a negative
    one, does not decode).  `str.translate` over ASCII text looks up each
    distinct character once, in order, and a `defaultdict` adds the missing
    ones in C, so no Python code runs per occurrence.
    """
    if type(signatures) is not array or signatures.typecode != COLUMN_TYPECODE or len(signatures) < _TRACKED_MIN:
        return None
    try:
        text = str(signatures, _UTF32_NATIVE, "surrogatepass")
    except UnicodeDecodeError:
        return None
    if not text.isascii():
        return None
    distinct: dict = defaultdict(int)
    text.translate(distinct)
    return distinct


class Legality:
    """The membership rule: every signature occurs in exactly two distinct
    sequences.  Occurrence-count imbalance between the two is legal; it
    surfaces as a deadlock at matching time.

    `add` reads a chunk's distinct signatures once, in order of first
    appearance, records each one's rank in O(1) and sets `violation` at the
    first third member.  A signature with fewer than two member ranks can
    only be judged by `finish`, once every sequence is closed.  The first
    violation found is kept.

    `validate_static` feeds it a complete model; `Engine.append` feeds it a
    stream.  Parsed and streamed members are endpoints of their envelopes by
    construction; `validate_static` reads where an API-built strict model
    breaks a role or the endpoint rule from the model's trace.
    """

    def __init__(self) -> None:
        self.violation: Optional[IllegalReason] = None
        # signature -> its first and its second member rank; int to int, so
        # the cyclic GC never scans them
        self._first: dict = {}
        self._second: dict = {}

    def add(self, rank: int, signatures) -> None:
        """Record `signatures`, the next occurrences of sequence `rank`."""
        if self.violation is not None:
            return
        distinct = _tracked_distinct(signatures)
        # membership changes at most twice per signature, so look at each
        # distinct signature once, in order of first appearance
        first, second = self._first, self._second
        for sig in dict.fromkeys(signatures) if distinct is None else distinct:
            member = first.setdefault(sig, rank)
            if member != rank and second.setdefault(sig, rank) != rank:
                message = "occurs in 3 sequences, expected exactly 2"
                self.violation = IllegalReason(sig, tuple(sorted((member, second[sig], rank))), message)
                return

    def finish(self) -> Optional[IllegalReason]:
        """Judge the model as complete: every signature must have two members."""
        if self.violation is None and len(self._first) > len(self._second):
            sig = min(sig for sig in self._first if sig not in self._second)
            message = "occurs in 1 sequence, expected exactly 2"
            self.violation = IllegalReason(sig, (self._first[sig],), message)
        return self.violation


def validate_static(model: Model) -> Optional[IllegalReason]:
    """The first legality violation of complete `model`, or None when it is
    legal; the one reader of a complete model, for the oracles and
    `Engine.load`.  It reads in model order up to the traced sequence, if
    any.  That sequence gives its role violation, or its column up to the
    first member off its envelope's endpoints and then, unless a third
    member came first, that member's violation; nothing after it is read."""
    legality, trace = Legality(), model._trace
    stop = len(model.sequences) if trace is None else trace[0]
    for seq in model.sequences[:stop]:
        legality.add(seq.rank, seq.column)
    if trace is not None:
        _, reason, pos, env = trace
        seq = model.sequences[stop]
        if reason is None:
            legality.add(seq.rank, seq.column[: pos + 1])
            if legality.violation is None:
                sig = seq.column[pos]
                ranks, ends = sorted({legality._first[sig], seq.rank}), sorted((env[1], env[2]))
                message = f"occurs in sequences {ranks} but its envelope endpoints are {ends}"
                reason = IllegalReason(sig, tuple(ranks), message)
        legality.violation = legality.violation or reason
    return legality.finish()


def deadlock_report(columns: dict, cursors: dict, space) -> DeadlockReport:
    """The report of sequences, as signature columns by rank, stopped at the given cursors.

    Every occurrence before a cursor was consumed in a rendezvous; the
    occurrence at a cursor, if any, is a blocked head, whose envelope is
    its signature's entry in `space` (none without a space).
    """
    blocked = []
    total = consumed = 0
    for rank in sorted(columns):
        column = columns[rank]
        cur = cursors[rank]
        total += len(column)
        consumed += cur
        if cur < len(column):
            sig = column[cur]
            blocked.append(BlockedEntry(rank, cur, sig, None if space is None else space.envelope_of(sig)))
    return DeadlockReport(
        blocked=tuple(blocked),
        matched_pairs=consumed // 2,
        residual=total - consumed,
        message_count=total,
    )
