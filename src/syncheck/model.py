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
    """One process's ordered occurrences with a consumption cursor.

    Consumption is a cursor advance, never a physical deletion, so blocked
    positions stay reportable.
    """

    rank: int
    occurrences: list  # list[MessageOccurrence]
    cursor: int = 0
    closed: bool = True

    def __len__(self) -> int:
        return len(self.occurrences)

    @property
    def exhausted(self) -> bool:
        return self.cursor >= len(self.occurrences)

    def head(self) -> MessageOccurrence:
        return self.occurrences[self.cursor]


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


def validate_static(model: Model) -> Optional[IllegalReason]:
    """Static legality check: every signature in exactly two distinct sequences.

    Returns None when the model is legal, an IllegalReason otherwise.
    Occurrence-count imbalance between the two sequences is legal here; it
    surfaces as a deadlock at matching time.  In strict mode the two
    containing ranks must be the envelope endpoints and each occurrence's
    role must sit on its own side.
    """
    strict = model.mode is Mode.STRICT
    send, recv = Role.SEND, Role.RECV
    seen: dict = {}  # signature -> list of distinct ranks (kept tiny; scan is hot)
    for seq in model.sequences:
        rank = seq.rank
        for pos, occ in enumerate(seq.occurrences):
            sig = occ[0]
            ranks = seen.get(sig)
            if ranks is None:
                seen[sig] = [rank]
            elif rank not in ranks:
                ranks.append(rank)
            if strict:
                env = occ[2]
                if env is None:
                    return IllegalReason(
                        signature=sig,
                        ranks=(rank,),
                        message=f"strict-mode occurrence at rank {rank} pos {pos} has no envelope",
                    )
                if occ[1] is send and rank != env[1]:
                    return IllegalReason(
                        signature=sig,
                        ranks=(rank,),
                        message=f"send at rank {rank} pos {pos} but envelope source is {env.source}",
                    )
                if occ[1] is recv and rank != env[2]:
                    return IllegalReason(
                        signature=sig,
                        ranks=(rank,),
                        message=f"recv at rank {rank} pos {pos} but envelope destination is {env.destination}",
                    )

    for sig in sorted(seen):
        ranks = seen[sig]
        if len(ranks) != 2:
            return IllegalReason(
                signature=sig,
                ranks=tuple(sorted(ranks)),
                message=f"signature {sig} occurs in {len(ranks)} sequences, expected exactly 2",
            )

    if strict:
        for sig, rank_list in seen.items():
            ranks = set(rank_list)
            env = model.space.envelope_of(sig) if model.space is not None else None
            if env is not None and ranks != {env.source, env.destination}:
                return IllegalReason(
                    signature=sig,
                    ranks=tuple(sorted(ranks)),
                    message=(
                        f"signature {sig} occurs in sequences {sorted(ranks)} "
                        f"but its envelope endpoints are {sorted((env.source, env.destination))}"
                    ),
                )
    return None


def abstracted(model: Model) -> Model:
    """Drop roles and envelopes, keeping signatures; verdicts are unchanged."""
    seqs = [
        Sequence(
            rank=s.rank,
            occurrences=[MessageOccurrence(o.signature) for o in s.occurrences],
            cursor=0,
            closed=s.closed,
        )
        for s in model.sequences
    ]
    return Model(sequences=seqs, mode=Mode.ABSTRACT, space=model.space)
