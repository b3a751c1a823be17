"""Core domain types: envelopes, occurrences, sequences, models, verdicts.

A "signature" is a plain nonnegative int issued densely by a
:class:`~syncheck.signatures.SignatureSpace`; downstream code uses it as a
dict key or array index.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple, Optional


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
    """Reject envelopes with non-integer fields, negatives, or self-messages."""
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


@dataclass
class Sequence:
    """One process's ordered occurrences; `closed` once no more can follow."""

    rank: int
    occurrences: list  # list[MessageOccurrence]
    closed: bool = True

    def __len__(self) -> int:
        return len(self.occurrences)


@dataclass
class Model:
    """A set of sequences with pairwise-distinct ranks plus their signature space."""

    sequences: list  # list[Sequence]
    mode: Mode
    space: "object" = None  # SignatureSpace; untyped to avoid an import cycle

    def __post_init__(self) -> None:
        ranks = [s.rank for s in self.sequences]
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"duplicate process ranks in model: {ranks}")

    @property
    def message_count(self) -> int:
        return sum(len(s) for s in self.sequences)

    def sequence_by_rank(self, rank: int) -> Sequence:
        for s in self.sequences:
            if s.rank == rank:
                return s
        raise KeyError(rank)


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


# Verdict = NoDeadlock | Deadlock | Illegal


class Legality:
    """The legality rules, checked as occurrences arrive.

    Every signature occurs in exactly two distinct sequences.  In strict
    mode every occurrence also carries an envelope, a send sits at its
    envelope's source and a recv at its destination, and every member rank
    of a signature is an endpoint of the envelope it was first seen with.
    Occurrence-count imbalance between the two sequences is legal; it
    surfaces as a deadlock at matching time.

    `add` records each occurrence's rank in O(1) and reports a violation as
    soon as the occurrences seen show one.  A signature with fewer than two
    member ranks can only be judged by `finish`, once every sequence is
    closed.  The first violation found is kept.
    """

    def __init__(self, mode: Mode):
        self.strict = mode is Mode.STRICT
        self.violation: Optional[IllegalReason] = None
        self._members: dict = {}  # signature -> distinct member ranks (at most 2)
        self._lonely = 0  # signatures with one member rank so far
        self._first_envelope: dict = {}  # signature -> envelope it was first seen with (strict)

    def add(self, rank: int, start: int, occurrences, signatures) -> Optional[IllegalReason]:
        """Record `occurrences`, the positions from `start` on of sequence `rank`.

        `signatures` holds their signatures, in the same order.
        """
        if self.violation is None:
            self.violation = self._add(rank, start, occurrences, signatures)
        return self.violation

    def _add(self, rank: int, start: int, occurrences, signatures) -> Optional[IllegalReason]:
        strict = self.strict
        if strict:
            send, recv = Role.SEND, Role.RECV
            first_envelope = self._first_envelope
            for pos, (sig, role, env) in enumerate(occurrences, start):
                if env is None:
                    message = f"strict-mode occurrence at rank {rank} pos {pos} has no envelope"
                    return IllegalReason(sig, (rank,), message)
                if role is send and rank != env[1]:
                    message = f"send at rank {rank} pos {pos} but envelope source is {env.source}"
                    return IllegalReason(sig, (rank,), message)
                if role is recv and rank != env[2]:
                    message = f"recv at rank {rank} pos {pos} but envelope destination is {env.destination}"
                    return IllegalReason(sig, (rank,), message)
                if sig not in first_envelope:
                    first_envelope[sig] = env
        # membership changes at most twice per signature, so look at each
        # distinct signature once, in order of first appearance
        members = self._members
        for sig in dict.fromkeys(signatures):
            ranks = members.get(sig)
            if ranks is None:
                ranks = members[sig] = []
            elif rank in ranks:
                continue
            if len(ranks) == 2:
                ranks = sorted(ranks + [rank])
                message = f"signature {sig} occurs in 3 sequences, expected exactly 2"
                return IllegalReason(sig, tuple(ranks), message)
            if strict:
                env = first_envelope[sig]
                if rank != env.source and rank != env.destination:
                    ranks = sorted(ranks + [rank])
                    message = (
                        f"signature {sig} occurs in sequences {ranks} "
                        f"but its envelope endpoints are {sorted((env.source, env.destination))}"
                    )
                    return IllegalReason(sig, tuple(ranks), message)
            ranks.append(rank)
            self._lonely += 1 if len(ranks) == 1 else -1
        return None

    def finish(self) -> Optional[IllegalReason]:
        """Judge the model as complete: every signature must have two members."""
        if self.violation is None and self._lonely:
            sig = min(sig for sig, ranks in self._members.items() if len(ranks) < 2)
            ranks = tuple(self._members[sig])
            message = f"signature {sig} occurs in {len(ranks)} sequences, expected exactly 2"
            self.violation = IllegalReason(sig, ranks, message)
        return self.violation


def validate_static(model: Model) -> Optional[IllegalReason]:
    """The model's first legality violation, or None when it is legal."""
    legality = Legality(model.mode)
    for seq in model.sequences:
        legality.add(seq.rank, 0, seq.occurrences, [occ.signature for occ in seq.occurrences])
    return legality.finish()


def deadlock_report(occurrences_by_rank: dict, cursors_by_rank: dict) -> DeadlockReport:
    """The report of sequences stopped at the given cursors.

    Every occurrence before a cursor was consumed in a rendezvous; the
    occurrence at a cursor, if any, is a blocked head.
    """
    blocked = []
    total = consumed = 0
    for rank in sorted(occurrences_by_rank):
        occurrences = occurrences_by_rank[rank]
        cur = cursors_by_rank[rank]
        total += len(occurrences)
        consumed += cur
        if cur < len(occurrences):
            occ = occurrences[cur]
            blocked.append(BlockedEntry(rank, cur, occ.signature, occ.envelope))
    return DeadlockReport(
        blocked=tuple(blocked),
        matched_pairs=consumed // 2,
        residual=total - consumed,
        message_count=total,
    )


def abstracted(model: Model) -> Model:
    """Drop roles and envelopes, keeping signatures; verdicts are unchanged."""
    seqs = [
        Sequence(
            rank=s.rank,
            occurrences=[MessageOccurrence(o.signature) for o in s.occurrences],
            closed=s.closed,
        )
        for s in model.sequences
    ]
    return Model(sequences=seqs, mode=Mode.ABSTRACT, space=model.space)
