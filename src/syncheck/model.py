"""Core domain types: envelopes, occurrences, sequences, models, verdicts.

A "signature" is a dense nonnegative int, and its entry in its
:class:`~syncheck.signatures.SignatureSpace` is its envelope (or character):
the space is the one envelope authority.  Every sequence is one
``array('i')`` column of signatures.  A `Model` is fixed once built, and
its space holds its mode's kind, envelopes (strict) or characters; a strict
one checks each API-built occurrence's role once, when built.  `Legality`
judges every other rule, with one membership table for both modes.
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
    `column` of signatures and API-built `occurrences`, which are kept as a
    tuple for the `Model`'s role check, so they cannot leave the column.
    Either way `column` becomes an `array('i')` here.  A growing sequence
    lives only in an `Engine`."""

    rank: int
    occurrences: Optional[tuple] = None  # tuple[MessageOccurrence, ...], from any iterable
    column: Optional[array] = None

    def __post_init__(self) -> None:
        if (self.occurrences is None) == (self.column is None):
            raise ValueError(f"Sequence {self.rank} takes exactly one of occurrences and column")
        if self.occurrences is not None:
            object.__setattr__(self, "occurrences", tuple(self.occurrences))
        column = self.column if self.occurrences is None else [occ.signature for occ in self.occurrences]
        if type(column) is not array or column.typecode != COLUMN_TYPECODE:
            object.__setattr__(self, "column", array(COLUMN_TYPECODE, column))

    def __len__(self) -> int:
        return len(self.column)


@dataclass(frozen=True)
class Model:
    """A tuple of sequences, from any iterable, with pairwise-distinct ranks,
    plus their signature space, which every model needs; fixed once built.
    The space holds the mode's kind, envelopes (strict) or characters, and
    a strict model's API-built occurrences' roles are checked once, here."""

    sequences: tuple  # tuple[Sequence, ...]
    mode: Mode
    space: "object"  # SignatureSpace; untyped to avoid an import cycle

    def __post_init__(self) -> None:
        sequences = tuple(self.sequences)
        ranks = [s.rank for s in sequences]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate process ranks in model: {ranks}")
        object.__setattr__(self, "sequences", sequences)
        strict = self.mode is Mode.STRICT
        if self.space is None:  # Legality's table is indexed by signature
            raise ValueError(f"{'a strict' if strict else 'an abstract'} model needs a signature space")
        if self.space.entries and isinstance(self.space.entries[0], str) is strict:  # an empty space fits either mode
            raise ValueError(f"{'a strict' if strict else 'an abstract'} model needs a signature space of {'envelopes' if strict else 'characters'}, got {self.space.entries[0]!r}")
        object.__setattr__(self, "_role_violation", _role_violation(sequences, self.space.entries) if strict else None)

    @property
    def message_count(self) -> int:
        return sum(len(s) for s in self.sequences)


def _role_violation(sequences: tuple, entries: list) -> Optional[IllegalReason]:
    """The first role violation of a strict model's API-built occurrences, in
    model order: no envelope, one other than the signature's entry, a send
    off its source or a recv off its destination.  `Legality` judges a
    signature outside the space; its roles are read against its envelope."""
    size = len(entries)
    send, recv = Role.SEND, Role.RECV
    for seq in sequences:
        if seq.occurrences is None:
            continue
        rank = seq.rank
        for pos, (sig, role, env) in enumerate(seq.occurrences):
            entry = entries[sig] if 0 <= sig < size else env
            if env is None:
                message = f"strict-mode occurrence at rank {rank} pos {pos} has no envelope"
            elif env is not entry and env != entry:
                message = f"strict-mode occurrence at rank {rank} pos {pos} has an envelope other than its signature's entry in the space"
            elif role is send and rank != entry[1]:
                message = f"send at rank {rank} pos {pos} but envelope source is {entry[1]}"
            elif role is recv and rank != entry[2]:
                message = f"recv at rank {rank} pos {pos} but envelope destination is {entry[2]}"
            else:
                continue
            return IllegalReason(sig, (rank,), message)
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
    `_TRACKED_MIN` occurrences all in range(128), whose native UTF-32 text is
    then ASCII, a flag `isascii` reads in O(1); None otherwise.
    `str.translate` over ASCII text looks up each distinct character once,
    in order, and a `defaultdict` adds the missing ones in C."""
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


_THIRD = "occurs in 3 sequences, expected exactly 2"
_LONELY = "occurs in 1 sequence, expected exactly 2"
_FREE = (None, None, None)  # an abstract signature's ends before its first member


class Legality:
    """The membership rule: every signature occurs in exactly two distinct
    sequences; an imbalance of occurrences between them is a deadlock, not
    a violation.  `add` reads a chunk's distinct signatures once, in order,
    and keeps the first violation; `finish` judges only lonely signatures.

    One table serves both modes: items 1 and 2 of `ends[sig]` are its two
    members, and `bits[sig]`, a byte, holds the index of each one seen.  A
    strict `ends` is the space's own entries, whose endpoints are the
    members; an abstract one learns each rank into a free slot.  Any other
    rank is off the endpoints or a third member, and a signature outside the
    space is a violation where it is met.  The first entry gives the mode.
    Member ranks stay Python ints, so a rank of any size fits, 2^64 and past.
    `finish` finds the lowest lonely signature with two `bytearray.find`
    calls, each one `memchr` pass in C, and names its member
    `ends[sig][bits[sig]]`."""

    def __init__(self, space) -> None:
        self.violation: Optional[IllegalReason] = None
        self._entries = space.entries  # a stream's grows in place
        self._ends = None  # the entries, or an abstract table, from the first entry
        self._bits = bytearray()

    def add(self, rank: int, signatures) -> None:
        """Record `signatures`, the next occurrences of sequence `rank`."""
        if self.violation is not None:
            return
        entries, ends = self._entries, self._ends
        if ends is None and entries:  # with no entry, every signature is outside
            ends = self._ends = [] if isinstance(entries[0], str) else entries
        # membership changes at most twice per signature, so look at each
        # distinct signature once, in order of first appearance
        distinct = _tracked_distinct(signatures)
        if distinct is None:
            distinct = dict.fromkeys(signatures)
        bits, size = self._bits, len(entries)
        if len(bits) < size:  # a stream's space grows; at least double
            bits.extend(bytes(size))
            if ends is not entries:
                ends += [_FREE] * (len(bits) - len(ends))
        # abstract: this rank's ends alone, and with each first member, shared
        mine, last, pairs = (None, rank, None), None, {}
        for sig in distinct:
            if not 0 <= sig < size:
                self.violation = _outside(sig, rank, size)
                return
            env = ends[sig]
            if env is _FREE:  # abstract, no member yet
                ends[sig] = mine
                bits[sig] = 1
                continue
            seen = 1 if rank == env[1] else 2 if rank == env[2] else 0
            if not seen:
                if env[2] is not None:
                    self.violation = self._off_endpoints(rank, sig)
                    return
                if env is not last:  # abstract, one member: one lookup per run of one first member
                    last, pair = env, pairs.get(env[1]) or pairs.setdefault(env[1], (None, env[1], rank))
                ends[sig], seen = pair, 2
            bits[sig] |= seen

    def _off_endpoints(self, rank: int, sig: int) -> IllegalReason:
        """The violation of member `rank` of `sig`, neither of its ends."""
        env, seen = self._ends[sig], self._bits[sig]
        if seen == 3:
            return IllegalReason(sig, tuple(sorted((env[1], env[2], rank))), _THIRD)
        ranks, endpoints = sorted({rank, env[seen]} if seen else {rank}), sorted((env[1], env[2]))
        return IllegalReason(sig, tuple(ranks), f"occurs in sequences {ranks} but its envelope endpoints are {endpoints}")

    def finish(self) -> Optional[IllegalReason]:
        """Judge the model as complete: every signature must have two members."""
        if self.violation is not None:
            return self.violation
        bits = self._bits
        lonely = [sig for sig in (bits.find(1), bits.find(2)) if sig >= 0]  # two memchr passes
        if lonely:
            sig = min(lonely)
            self.violation = IllegalReason(sig, (self._ends[sig][bits[sig]],), _LONELY)
        return self.violation


def _outside(sig: int, rank: int, size: int) -> IllegalReason:
    # a signature outside the space has no label to report, so the message names it
    return IllegalReason(None, (rank,), f"signature {sig} at rank {rank} is outside the signature space, range({size})")


def validate_static(model: Model) -> Optional[IllegalReason]:
    """The first legality violation of complete `model`, or None, for the
    oracles and `Engine.load`: its role violation, else the first
    out-of-space, membership or endpoint violation of one `Legality` pass in
    model order, else the lowest lonely signature."""
    if model._role_violation is not None:
        return model._role_violation
    legality = Legality(model.space)
    for seq in model.sequences:
        legality.add(seq.rank, seq.column)
    return legality.finish()


def deadlock_report(columns: dict, cursors: dict, space) -> DeadlockReport:
    """The report of sequences, as signature columns by rank, stopped at the given cursors.

    Every occurrence before a cursor was consumed in a rendezvous; the
    occurrence at a cursor, if any, is a blocked head, whose envelope is
    its signature's entry in `space` (None for a character).
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
            blocked.append(BlockedEntry(rank, cur, sig, space.envelope_of(sig)))
    return DeadlockReport(
        blocked=tuple(blocked),
        matched_pairs=consumed // 2,
        residual=total - consumed,
        message_count=total,
    )
