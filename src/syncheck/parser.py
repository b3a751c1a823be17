"""Parsers for the two input formats, plus pretty-printers.

Abstract format: optional ``#abstract`` header; each nonblank, non-comment
line is either ``P<rank>: <chars>`` or bare ``<chars>`` (bare lines get
ranks 0,1,2,... in order).  A rank header ends at its first colon, so
``P0:a:b`` is rank 0 with body ``a:b``.  Every non-whitespace character of
a body is one message occurrence.  A comment is a whole line whose first
nonblank character is ``#``; a later ``#`` is an occurrence.

DSL format (``#`` starts a comment that runs to the end of the line)::

    process 0 { send tag=1 to 2; recv tag=3 from 1; }

``send tag=t to j`` in process i is a send with envelope (t, i, j, comm);
``recv tag=t from i`` in process j is a recv with envelope (t, i, j, comm);
``comm=c`` is optional and defaults to 0.  Whitespace and comments may
appear between any two tokens; error positions count lines as
``str.splitlines`` does.

Both parsers emit one ``array('i')`` column of signatures per process and
no per-occurrence object: the envelope and the enclosing rank determine a
DSL occurrence's role.

An abstract body becomes its column in one C pass: ``str.translate`` over a
``signatures._CharTable`` interns each new character, deletes whitespace
and maps every other character to the character whose code point is its
signature; that, encoded as native-order UTF-32, is the column's bytes.
``stream`` reads abstract appends through the same table.  The model gets
the parse's entries in a space without an index, as a DSL model does.

The DSL is read in bulk.  One substitution blanks the comments, and one
``findall`` per window of a process body (about 16 KiB, ending just after a
``;``) reads its statements, with no token or Match object, and one loop
turns each statement into its envelope tuple and interns it.  The bulk
reader declines anything that does not read: junk, a missing ``}``, a
nonblank tail, a duplicate rank, a self-message or an integer too long for
``int()``.  It then reports the unit boundary where it stopped: the header, or the
statement that does not read.  A token reader names the error from there,
reading one token at a time in grammar order, and reports the first token
that does not fit.
"""
from __future__ import annotations

import re
from array import array
from itertools import chain
from typing import List, NoReturn, Optional, Union

from .model import COLUMN_TYPECODE, Mode, Model, Sequence
from .signatures import SignatureSpace


class ParseError(Exception):
    """Positioned parse failure; line/column are 1-based."""

    def __init__(self, line: int, column: int, message: str, category: str = "Syntax"):
        self.line = line
        self.column = column
        self.message = message
        self.category = category
        super().__init__(f"{line}:{column}: {category}: {message}")


# The line breaks of str.splitlines, which also reads `\r\n` as one; a
# comment ends at any of them.  None is special in a regex character class.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# Whitespace and comments.  The lookahead keeps backtracking from ending a
# comment early and reading the rest of its line as code.
_SKIP = rf"\s*(?:#[^{_BREAKS}]*(?![^{_BREAKS}])\s*)*"
# `process` after whitespace and comments, unless an `#abstract` header leads;
# the header's keyword ends where an identifier would.
_DSL_START_RE = re.compile(rf"(?!\s*#abstract(?!\w)){_SKIP}process(?!\S)")


def detect_format(text: str) -> Mode:
    """DSL iff the first token after whitespace and comments is ``process``
    and no ``#abstract`` header leads; abstract otherwise."""
    return Mode.STRICT if _DSL_START_RE.match(text) else Mode.ABSTRACT


def parse_model(text: str) -> Model:
    if detect_format(text) is Mode.STRICT:
        return parse_dsl(text)
    return parse_abstract(text)


# a rank header ends at its first colon: `P0:a:b` is rank 0, body `a:b`
_RANK_HEADER_RE = re.compile(r"P(\S*?)\s*:")


def decimal(digits: str, what: str) -> int:
    """The value of `digits`, a run of decimal digits; a ValueError names
    `what` when there are more digits than int() converts."""
    try:
        return int(digits)
    except ValueError:
        raise ValueError(f"{what} has too many digits ({len(digits)})") from None


def _abstract_rank(rank_text: str, lineno: int) -> int:
    """The rank of a `P<rank>:` line: a run of decimal digits, as in the DSL.

    int() alone would also take `+1`, `1_0` and `-0`.
    """
    negative = rank_text[:1] == "-"
    digits = rank_text[1:] if negative else rank_text
    try:
        rank = int(digits) if digits.isdecimal() else None
    except ValueError:  # more digits than int() converts
        rank = None
    if rank is None or (negative and rank == 0):
        raise ParseError(lineno, 2, f"bad process rank {rank_text!r}", "BadInteger")
    if negative:
        raise ParseError(lineno, 2, f"negative process rank {-rank}", "BadInteger")
    return rank


def parse_abstract(text: str) -> Model:
    sequences: List[Sequence] = []
    used_ranks: set = set()
    auto_rank = 0
    space = SignatureSpace()
    table = space.char_table()  # characters get signatures in order of first appearance
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _RANK_HEADER_RE.match(line)
        if match:
            rank = _abstract_rank(match[1], lineno)
            body = line[match.end():]
        else:
            rank, body = auto_rank, line
            auto_rank += 1
        if rank in used_ranks:
            raise ParseError(lineno, 1, f"process {rank} defined twice", "DuplicateProcess")
        used_ranks.add(rank)
        sequences.append(Sequence(rank=rank, column=table.column(body)))
    return Model(sequences=sequences, mode=Mode.ABSTRACT, space=SignatureSpace._adopt(space.entries))


# `#` is never a token: without it, backtracking could un-skip a comment.
# A keyword ends where an identifier would: `sendx` is one token, not `send`.
_TOKEN_RE = re.compile(rf"{_SKIP}([A-Za-z_]\w*|\d+|[^\s#])")


# The bulk reader's grammar, for text whose comments are blanked.  A comment
# ends at a line break, so no two tokens join and a keyword's `(?!\w)` plus
# skipping before a word or a digit is `\s+`.
_COMMENT_RE = re.compile(rf"#[^{_BREAKS}]*")
_BULK_HEADER_RE = re.compile(r"\s*process\s+(\d+)\s*\{")
# A statement, or junk (a character that starts none, up to the next `;`),
# which leaves every group empty.  Each match sets its own groups, so
# `(?(1)...)` reads this statement's verb.
_BULK_STATEMENT_RE = re.compile(
    r"\s*(?:(s)end|recv)\s+tag\s*=\s*(\d+)\s*(?(1)to|from)\s+(\d+)(?:\s*comm\s*=\s*(\d+))?\s*;"
    r"|\s*\S[^;]*"
)
_WINDOW = 1 << 14  # characters of a body per findall, so its tuples stay few


def parse_dsl(text: str) -> Model:
    read = _read_bulk(text)
    if isinstance(read, Model):
        return read
    pos, rank, ranks = read
    _Rescan(text, pos).raise_error(rank, ranks)


def _read_bulk(text: str) -> Union[Model, tuple]:
    """The model of `text`, or where its first error is to be looked for.

    That is `(offset, rank, ranks)`: a unit boundary, the rank of the body
    it lies in (None between bodies) and the ranks read before it.  Every
    unit before it reads cleanly, so reading on from there token by token
    finds the error that reading from the start would."""
    if "#" in text:  # blanked, not removed, so offsets stay those of `text`
        text = _COMMENT_RE.sub(lambda m: " " * len(m[0]), text)
    index: dict = {}  # envelope tuple -> signature; the space keeps only the envelopes
    setdefault = index.setdefault
    sequences: List[Sequence] = []
    ranks: set = set()
    pos = 0
    while m := _BULK_HEADER_RE.match(text, pos):
        try:
            rank = int(m[1])
        except ValueError:  # more digits than int() converts
            break
        if rank in ranks:
            break
        ranks.add(rank)
        start = m.end()
        end = text.find("}", start)  # a body has no `}` once comments are blanked
        if end < 0:
            end = len(text)  # read on, to find the first statement that does not read
        column = array(COLUMN_TYPECODE)
        append = column.append
        window = _WINDOW
        while start < end:
            # a window ends just after its last `;`, so it cuts no statement;
            # a window of 0 characters holds one statement
            stop = text.rfind(";", start, min(start + window, end)) + 1
            stop = stop or text.find(";", start, end) + 1
            if not stop:
                # only blanks may follow the last `;`; findall would try a
                # match at each blank in turn, in time quadratic in their count
                if text[start:end].strip():
                    return start, rank, ranks
                break
            try:
                # A window that raises may leave some of its statements appended
                # and interned.  That is harmless: read again a statement at a
                # time, it raises again, and the reader declines, returning no model.
                for send, tag, peer, comm in _BULK_STATEMENT_RE.findall(text, start, stop):
                    peer = int(peer)  # junk's empty peer raises ValueError
                    if peer == rank:
                        raise ValueError("self-message")
                    comm = int(comm) if comm else 0
                    # a send's envelope runs from this rank to the peer, a recv's back
                    key = (int(tag), rank, peer, comm) if send else (int(tag), peer, rank, comm)
                    # faster than a dict with __missing__, whose misses are Python calls
                    append(setdefault(key, len(index)))
            except ValueError:
                if not window:
                    return start, rank, ranks
                window = 0  # read this window again a statement at a time
                continue
            start = stop
        if end == len(text):  # no `}`: the error follows the last statement
            return start, rank, ranks
        sequences.append(Sequence(rank=rank, column=column))
        pos = end + 1
    if m or text[pos:].strip():  # a header that does not read, or a nonblank tail
        return pos, None, ranks
    return Model(sequences=sequences, mode=Mode.STRICT, space=SignatureSpace._adopt(list(index)))


def _position(text: str, offset: int) -> tuple:
    """1-based (line, column) of `offset`, with lines as str.splitlines counts them."""
    breaks = sum(text.count(c, 0, offset) for c in _BREAKS) - text.count("\r\n", 0, offset)
    line_start = max(text.rfind(c, 0, offset) for c in _BREAKS) + 1
    return breaks + 1, offset - line_start + 1


class _Rescan:
    """Token-by-token reading of the DSL from where the bulk reader stopped.

    Units are read in grammar order, so the error names the first token
    that does not fit.  Reading starts at `pos`, a unit boundary just past
    the previous token (or 0), which is where an error at end of input
    points.
    """

    def __init__(self, text: str, pos: int):
        self.text = text
        self.end = pos  # end of the last token taken
        self.pos = pos  # where the next token is looked for
        self._read()

    def _read(self) -> None:
        """Look at the next token: its text (None at end of input) and offset."""
        m = _TOKEN_RE.match(self.text, self.pos)
        self.tok: Optional[str] = m and m[1]
        if m:
            self.start, self.pos = m.start(1), m.end()

    def take(self) -> None:
        """Consume the current token."""
        self.end = self.start + len(self.tok)
        self._read()

    def error(self, message: str, category: str = "Syntax") -> ParseError:
        if self.tok is None:
            return ParseError(*_position(self.text, self.end), message + " (at end of input)", category)
        return ParseError(*_position(self.text, self.start), message, category)

    def expect(self, word: str) -> None:
        if self.tok != word:
            raise self.error(f"expected {word!r}, found {self.tok!r}")
        self.take()

    def integer(self, what: str) -> int:
        tok = self.tok
        if tok is None or not tok.isdecimal():
            raise self.error(f"expected {what} (nonnegative integer), found {tok!r}", "BadInteger")
        try:
            value = decimal(tok, what)
        except ValueError as exc:
            raise self.error(str(exc), "BadInteger") from None
        self.take()
        return value

    def raise_error(self, rank: Optional[int], ranks: set) -> NoReturn:
        """Read the statements of `rank`'s body up to its `}` (none when
        `rank` is None), then process after process, up to the first error;
        `ranks` are the ranks read so far."""
        while True:
            if rank is not None:
                while self.tok != "}":
                    self.statement(rank)
                self.take()
            if self.tok is None:
                raise AssertionError("DSL text reads cleanly but the bulk reader declined it")
            rank = self.header(ranks)

    def header(self, ranks: set) -> int:
        self.expect("process")
        offset = self.start
        rank = self.integer("process rank")
        if rank in ranks:
            message = f"process {rank} defined twice"
            raise ParseError(*_position(self.text, offset), message, "DuplicateProcess")
        ranks.add(rank)
        self.expect("{")
        return rank

    def statement(self, rank: int) -> None:
        verb = self.tok
        if verb not in ("send", "recv"):
            raise self.error(f"expected 'send' or 'recv', found {verb!r}")
        self.take()
        self.expect("tag")
        self.expect("=")
        self.integer("tag")
        self.expect("to" if verb == "send" else "from")
        offset = self.start
        peer = self.integer("peer rank")
        if self.tok == "comm":
            self.take()
            self.expect("=")
            self.integer("communicator")
        self.expect(";")
        if peer == rank:
            where = "send to" if verb == "send" else "recv from"
            message = f"process {rank} cannot {where} itself"
            raise ParseError(*_position(self.text, offset), message, "SelfMessage")


_ABSTRACT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)


def render_abstract(model: Model) -> str:
    """Abstract form, one character per signature.

    Signatures whose label is already a single character keep it; others
    (strict-model envelopes) are relabeled from a 62-character alphabet, so
    only models with at most 62 such signatures can be rendered.
    """
    label_of = model.space.label_of
    signatures = dict.fromkeys(chain.from_iterable(seq.column for seq in model.sequences))
    labels = {sig: label_of(sig) for sig in signatures}  # in order of first appearance
    taken = set(labels.values())  # a label of other than one character is no alphabet character
    free = (c for c in _ABSTRACT_ALPHABET if c not in taken)
    for sig, label in labels.items():
        if len(label) != 1:
            labels[sig] = next(free, None)
            if labels[sig] is None:
                raise ValueError(
                    "too many distinct signatures to render as abstract "
                    f"(alphabet has {len(_ABSTRACT_ALPHABET)} characters)"
                )
    lines = [f"P{seq.rank}: {''.join(map(labels.__getitem__, seq.column))}" for seq in model.sequences]
    return "\n".join(lines) + "\n"


def render_dsl(model: Model) -> str:
    if model.mode is not Mode.STRICT:
        raise ValueError("only strict models render as DSL")
    entries = model.space.entries
    lines = []
    for seq in model.sequences:
        lines.append(f"process {seq.rank} {{")
        for sig in seq.column:
            tag, src, dst, comm = entries[sig]
            comm = f" comm={comm}" if comm != 0 else ""
            if src == seq.rank:  # a send sits at its envelope's source
                lines.append(f"  send tag={tag} to {dst}{comm};")
            else:
                lines.append(f"  recv tag={tag} from {src}{comm};")
        lines.append("}")
    return "\n".join(lines) + "\n"
