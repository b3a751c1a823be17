"""Shared helpers for the test suite."""
from __future__ import annotations

import io
import random
import re
from array import array

from syncheck import (
    Deadlock,
    Envelope,
    Illegal,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    Sequence,
    SignatureSpace,
    parse_abstract,
)
from syncheck.cli import main
from syncheck.parser import ParseError, _abstract_rank, decimal

PAPER_ABSTRACT = "ab\nbc\nca"

PAPER_DSL = """
process 0 {send tag=1 to 2; send tag=2 to 1;}
process 1 {recv tag=2 from 0; send tag=3 to 2;}
process 2 {recv tag=3 from 1; recv tag=1 from 0;}
"""


def abstract_model(*strings: str) -> Model:
    return parse_abstract("\n".join(strings))


def char_space(size: int) -> SignatureSpace:
    """A space of `size` characters, signature k the character chr(k), for
    engines and `Legality` passes fed plain signatures."""
    return SignatureSpace(map(chr, range(size)))


def model_from_tuples(seqs) -> Model:
    """Build an abstract model straight from per-rank character tuples."""
    space = SignatureSpace()
    sequences = [
        Sequence(rank=i, occurrences=[MessageOccurrence(space.intern_character(c)) for c in chars])
        for i, chars in enumerate(seqs)
    ]
    return Model(sequences=sequences, mode=Mode.ABSTRACT, space=space)


def halo_model(processes: int, iterations: int, safe: bool = True) -> Model:
    """A 1-D periodic halo exchange over `processes` ranks, as a strict
    model of columns: each iteration, rank r sends `right[r]` to r + 1 and
    `left[r]` to r - 1, and receives `right[r - 1]` and `left[r + 1]`, ranks
    mod `processes`, one envelope per direction and rank reused every
    iteration.  Signature r is `right[r]`, tag 0, and `processes + r` is
    `left[r]`, tag 1.  A period is the two sends, then the two receives; in
    the safe ordering odd ranks receive first, which completes when
    `processes` is even, and in the unsafe one every rank sends first, which
    deadlocks at once under rendezvous."""
    P = processes
    space = SignatureSpace([(0, r, (r + 1) % P, 0) for r in range(P)] + [(1, r, (r - 1) % P, 0) for r in range(P)])
    sequences = []
    for r in range(P):
        sends, recvs = [r, P + r], [(r - 1) % P, P + (r + 1) % P]
        period = recvs + sends if safe and r % 2 else sends + recvs
        sequences.append(Sequence(rank=r, column=array("i", period * iterations)))
    return Model(sequences=sequences, mode=Mode.STRICT, space=space)


def in_order(model: Model, order) -> Model:
    """The model with its sequences listed in `order`, a permutation of its
    ranks, so that `Engine.load` appends and closes them in that order."""
    by_rank = {seq.rank: seq for seq in model.sequences}
    return Model(sequences=[by_rank[r] for r in order], mode=model.mode, space=model.space)


def run_cli(args, stdin_text=""):
    """`syncheck` with `args` and `stdin_text` as stdin, in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    code = main(args, stdin=io.StringIO(stdin_text), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def classify(verdict) -> str:
    if isinstance(verdict, NoDeadlock):
        return "ok"
    if isinstance(verdict, Deadlock):
        return "deadlock"
    if isinstance(verdict, Illegal):
        return "illegal"
    raise TypeError(verdict)


def random_legal_abstract(rng: random.Random, max_procs: int = 5, max_events: int = 12) -> Model:
    """Legal-by-construction abstract model: fresh character per rendezvous,
    appended to two random tails, then bounded-window jitter per sequence."""
    procs = rng.randint(2, max_procs)
    seqs = [[] for _ in range(procs)]
    alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
    events = rng.randint(1, max_events)
    for k in range(events):
        a = rng.randrange(procs)
        b = rng.randrange(procs - 1)
        if b >= a:
            b += 1
        ch = alphabet[k]
        seqs[a].append(ch)
        seqs[b].append(ch)
    for lst in seqs:
        for i in range(len(lst)):
            j = rng.randint(i, min(i + 2, len(lst) - 1))
            lst[i], lst[j] = lst[j], lst[i]
    return model_from_tuples(seqs)


def random_rows(rng: random.Random) -> list:
    """Per-rank character lists of a random abstract model.

    A third are legal; the others have a character copied into a third (or
    fourth) sequence, a character in one sequence only, or both.
    """
    model = random_legal_abstract(rng)
    label = model.space.label_of
    rows = [[label(o.signature) for o in seq.occurrences] for seq in model.sequences]
    kind = rng.choice(("legal", "legal", "third", "fourth", "lonely", "mixed"))

    def insert(ch):
        candidates = [row for row in rows if ch not in row]
        if not candidates or rng.random() < 0.2:
            rows.append([])
            candidates = [rows[-1]]
        row = rng.choice(candidates)
        row.insert(rng.randint(0, len(row)), ch)

    if kind in ("third", "fourth", "mixed"):
        ch = rng.choice([ch for row in rows for ch in row])
        insert(ch)
        if kind == "fourth":
            insert(ch)
    if kind in ("lonely", "mixed"):
        insert("~")
    return rows


def interleaving(rng: random.Random, rows) -> list:
    """Events over the nonempty rows: (rank, start, end) appends the row's
    slice, (rank, None, None) closes it.

    Each row arrives in random chunks, in order; the ranks interleave at
    random.  No rank closes before every rank has sent its first chunk,
    since closing every known rank fixes the verdict.
    """
    pending = {}
    for rank, row in enumerate(rows):
        if row:
            cuts = sorted(rng.sample(range(1, len(row)), rng.randint(0, len(row) - 1)))
            bounds = [0] + cuts + [len(row)]
            pending[rank] = [(rank, a, b) for a, b in zip(bounds, bounds[1:])] + [(rank, None, None)]
    unopened = set(pending)
    events = []
    while pending:
        rank = rng.choice(sorted(pending))
        if pending[rank][0][1] is None and unopened:
            rank = rng.choice(sorted(unopened))
        events.append(pending[rank].pop(0))
        unopened.discard(rank)
        if not pending[rank]:
            del pending[rank]
    return events


class OrderedLegality:
    """A reference for legality that shares no code with `syncheck`: the
    membership rule, each chunk read one distinct signature at a time in
    order of first appearance.  Violations are (signature, ranks, message)
    tuples.  `space` gives its entries up front, or as a stream interns
    them.  In either mode a signature outside a given space is a violation
    where it is met; in strict mode a signature's members must be its
    entry's endpoints.  `finish` names the lowest lonely signature."""

    def __init__(self, space=None, strict: bool = False):
        self.entries = None if space is None else space.entries
        self.strict = strict
        self.first: dict = {}
        self.second: dict = {}
        self.violation = None

    def add(self, rank, signatures):
        if self.violation is None:
            self.violation = self._add(rank, signatures)

    def _add(self, rank, signatures):
        for sig in dict.fromkeys(signatures):
            if self.entries is not None and sig not in range(len(self.entries)):
                message = f"signature {sig} at rank {rank} is outside the signature space, range({len(self.entries)})"
                return None, (rank,), message
            member = self.first.setdefault(sig, rank)
            if member != rank and self.second.setdefault(sig, rank) != rank:
                ranks = tuple(sorted((member, self.second[sig], rank)))
                return sig, ranks, "occurs in 3 sequences, expected exactly 2"
            env = Envelope(*self.entries[sig]) if self.strict else None
            if env is not None and rank not in (env.source, env.destination):
                ranks = sorted({member, rank})
                endpoints = sorted((env.source, env.destination))
                return sig, tuple(ranks), f"occurs in sequences {ranks} but its envelope endpoints are {endpoints}"
        return None

    def finish(self):
        lonely = [sig for sig in self.first if sig not in self.second]
        if self.violation is None and lonely:
            sig = min(lonely)
            self.violation = sig, (self.first[sig],), "occurs in 1 sequence, expected exactly 2"
        return self.violation


def reference_strict_signatures(tokens: list, space: SignatureSpace, known: dict) -> list:
    """The strict stream token reader as it was before its fields were read
    by name, kept as the reference for token syntax: every new token is
    split, checked in one order and read with `decimal` and `Envelope`, so
    the reader that replaced it must give the same signatures, or the same
    error, and leave `known` and the space the same.  Which ranks may append
    a token is not the reader's to judge."""
    signatures = []
    for token in tokens:
        sig = known.get(token)
        if sig is None:
            fields = token.split(",")
            if len(fields) not in (3, 4):
                raise ValueError(f"expected tag,src,dst[,comm], got {token!r}")
            if not all(map(str.isdecimal, fields)):
                raise ValueError(f"expected decimal integers tag,src,dst[,comm], got {token!r}")
            env = Envelope(*map(decimal, fields, Envelope._fields))
            sig = known[token] = space.signature_for(env)
        signatures.append(sig)
    return signatures


_REFERENCE_RANKED_LINE_RE = re.compile(r"^P(\S*?)\s*:\s*(.*)$")


def reference_parse_abstract(text: str) -> Model:
    """The abstract reader as it was before whitespace was deleted in the
    interning pass, kept as the reference for the abstract format: a regex
    reads a ranked line's header and body, the body is split at whitespace
    and joined, and each character is interned in order of first appearance,
    one at a time.  Its header regex is the current one, which ends a rank
    header at its first colon; `parse_abstract` must give the same ranks,
    columns and entries, or the same error."""
    sequences = []
    used_ranks: set = set()
    auto_rank = 0
    index: dict = {}  # character -> signature
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _REFERENCE_RANKED_LINE_RE.match(line)
        if match:
            rank_text, body = match.groups()
            rank = _abstract_rank(rank_text, lineno)
        else:
            rank, body = auto_rank, line
            auto_rank += 1
        if rank in used_ranks:
            raise ParseError(lineno, 1, f"process {rank} defined twice", "DuplicateProcess")
        used_ranks.add(rank)
        column = array("i", [index.setdefault(ch, len(index)) for ch in "".join(body.split())])
        sequences.append(Sequence(rank=rank, column=column))
    return Model(sequences=sequences, mode=Mode.ABSTRACT, space=SignatureSpace(list(index)))


# every character str.isspace() holds for, the ones str.split() splits at
SPACES = [chr(c) for c in range(0x110000) if chr(c).isspace()]
# the line breaks of str.splitlines; each is also whitespace but `\r\n`
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
INLINE_SPACES = [ch for ch in SPACES if ch not in LINE_BREAKS]
_ABSTRACT_CHARS = list("PP::+-_0127abc\xe9#") + ["\U0001f600"]
_BAD_RANKS = ("", "-1", "+1", "1_0", "-0", "01", "x", "0:", "\xb2", "P")


def random_abstract_text(rng: random.Random) -> str:
    """Seeded abstract text over whitespace of every kind, every line break,
    comment lines, ranked and bare lines, and the characters of rank headers
    (`P`, `:`, digits, `+`, `-`, `_`) among ASCII, Latin-1 and astral ones.

    Half take their rows from `random_rows`, so some are legal models; the
    rest are noise that mixes header characters, whitespace and line breaks.
    """
    if rng.random() < 0.5:
        rows = random_rows(rng)
    else:
        pool = _ABSTRACT_CHARS * 2 + SPACES + ["\r\n"]
        rows = [rng.choices(pool, k=rng.randint(0, 10)) for _ in range(rng.randint(1, 5))]
    style = rng.choice(("ranked", "bare", "mixed"))
    lines = []
    for rank, row in enumerate(rows):
        if rng.random() < 0.15:
            lines.append(rng.choice(["", *INLINE_SPACES]) + "#" + "".join(rng.choices(_ABSTRACT_CHARS + INLINE_SPACES, k=4)))
        body = "".join(ch + "".join(rng.choices(INLINE_SPACES, k=rng.choice((0, 0, 0, 1, 2)))) for ch in row)
        if style == "bare" or (style == "mixed" and rng.random() < 0.5):
            head = ""
        else:
            spelling = rng.choice((f"{rank}:", f"{rank} :", f"{rank}:{rng.choice(INLINE_SPACES)}", f"{rank}{rng.choice(INLINE_SPACES)}:"))
            head = "P" + (f"{rng.choice(_BAD_RANKS)}:" if rng.random() < 0.05 else spelling)
        lines.append(rng.choice(["", "", *INLINE_SPACES]) + head + body)
    return "".join(line + rng.choice(LINE_BREAKS) for line in lines)
