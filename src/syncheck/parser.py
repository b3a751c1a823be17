"""Parsers for the two input formats, plus pretty-printers.

Abstract format: optional ``#abstract`` header; each nonblank, non-comment
line is either ``P<rank>: <chars>`` or bare ``<chars>`` (bare lines get
ranks 0,1,2,... in order).  Every non-whitespace character is one message
occurrence.

DSL format (``#`` starts a comment that runs to the end of the line)::

    process 0 { send tag=1 to 2; recv tag=3 from 1; }

``send tag=t to j`` in process i is a send with envelope (t, i, j, comm);
``recv tag=t from i`` in process j is a recv with envelope (t, i, j, comm);
``comm=c`` is optional and defaults to 0.  Whitespace and comments may
appear between any two tokens; error positions count lines as
``str.splitlines`` does.

Both parsers emit one ``array('l')`` column of signatures per process and
no per-occurrence object: the envelope and the enclosing rank determine a
DSL occurrence's role.

The DSL is read in bulk first.  One substitution removes the comments, and
one ``findall`` per window of a process body (about 16 KiB, ending just
after a ``;``) reads its statements, which become envelope tuples and
signatures a window at a time, with no token or Match object.  The bulk
reader declines anything that does not read: junk, a missing ``}``, a
nonblank tail, a duplicate rank, a self-message or an integer too long for
``int()``.  Only then does the unit-by-unit reader run, on the original
text and only to name the error.  It reads one grammar unit at a time -- a
process header, a statement, a closing brace -- each with one compiled
regex, and re-scans the unit whose regex fails token by token, to report
the first token that does not fit.
"""
from __future__ import annotations

import re
from array import array
from itertools import repeat
from typing import List, NoReturn, Optional

from .model import Mode, Model, Sequence
from .signatures import SignatureSpace


class ParseError(Exception):
    """Positioned parse failure; line/column are 1-based."""

    def __init__(self, line: int, column: int, message: str, category: str = "Syntax"):
        self.line = line
        self.column = column
        self.message = message
        self.category = category
        super().__init__(f"{line}:{column}: {category}: {message}")


# The line breaks of str.splitlines; a comment ends at any of them.
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(rf"\r\n|[{_BREAKS}]")
# Whitespace and comments.  The lookahead keeps backtracking from ending a
# comment early and reading the rest of its line as code.
_SKIP = rf"\s*(?:#[^{_BREAKS}]*(?![^{_BREAKS}])\s*)*"
# `process` after whitespace and comments, unless an `#abstract` header leads.
_DSL_START_RE = re.compile(rf"(?!\s*#abstract){_SKIP}process(?!\S)")


def detect_format(text: str) -> Mode:
    """DSL iff the first token after whitespace and comments is ``process``
    and no ``#abstract`` header leads; abstract otherwise."""
    return Mode.STRICT if _DSL_START_RE.match(text) else Mode.ABSTRACT


def parse_model(text: str) -> Model:
    if detect_format(text) is Mode.STRICT:
        return parse_dsl(text)
    return parse_abstract(text)


_RANKED_LINE_RE = re.compile(r"^P(\S*)\s*:\s*(.*)$")


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
    index: dict = {}  # character -> signature, in order of first appearance
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _RANKED_LINE_RE.match(line)
        if match:
            rank_text, body = match.groups()
            rank = _abstract_rank(rank_text, lineno)
        else:
            rank, body = auto_rank, line
            auto_rank += 1
        if rank in used_ranks:
            raise ParseError(lineno, 1, f"process {rank} defined twice", "DuplicateProcess")
        used_ranks.add(rank)
        chars = "".join(body.split())
        for ch in dict.fromkeys(chars):
            index.setdefault(ch, len(index))
        sequences.append(Sequence(rank=rank, column=array("l", list(map(index.__getitem__, chars)))))
    return Model(sequences=sequences, mode=Mode.ABSTRACT, space=SignatureSpace(list(index)))


# A keyword ends where an identifier would: `sendx` is one token, not `send`.
_HEADER_RE = re.compile(rf"{_SKIP}process(?!\w){_SKIP}(\d+){_SKIP}\{{")
_STATEMENT_RE = re.compile(
    rf"{_SKIP}(?:(send)|recv)(?!\w){_SKIP}tag(?!\w){_SKIP}={_SKIP}(\d+){_SKIP}"
    rf"(?(1)to|from)(?!\w){_SKIP}(\d+)(?:{_SKIP}comm(?!\w){_SKIP}={_SKIP}(\d+))?{_SKIP};"
)
_CLOSE_RE = re.compile(rf"{_SKIP}\}}")
_END_RE = re.compile(rf"{_SKIP}\Z")
# `#` is never a token: without it, backtracking could un-skip a comment.
_TOKEN_RE = re.compile(rf"{_SKIP}([A-Za-z_]\w*|\d+|[^\s#])")


# The bulk reader's grammar, for text without comments.  A comment ends at a
# line break, which stays, so no two tokens join and a keyword's `(?!\w)`
# plus skipping before a word or a digit is `\s+`.
_COMMENT_RE = re.compile(rf"#[^{_BREAKS}]*")
_BULK_HEADER_RE = re.compile(r"\s*process\s+(\d+)\s*\{")
# A statement, or junk (a character that starts none, up to the next `;`),
# which leaves every group empty.  Each match sets its own groups, so
# `(?(1)...)` reads this statement's verb.
_BULK_STATEMENT_RE = re.compile(
    r"\s*(?:(send)|recv)\s+tag\s*=\s*(\d+)\s*(?(1)to|from)\s+(\d+)(?:\s*comm\s*=\s*(\d+))?\s*;"
    r"|\s*\S[^;]*"
)
_WINDOW = 1 << 14  # characters of a body per findall, so its tuples stay few


def parse_dsl(text: str) -> Model:
    try:
        model = _read_bulk(text)
    except ValueError:
        model = None
    if model is None:
        _raise_error(text)
    return model


def _read_bulk(text: str) -> Optional[Model]:
    """The model of `text`, or None when anything in it does not read.

    Junk, an integer with more digits than int() converts and a duplicate
    rank, which Model rejects, raise ValueError instead."""
    if "#" in text:
        text = _COMMENT_RE.sub("", text)
    index: dict = {}  # envelope tuple -> signature; the space keeps only the envelopes
    setdefault = index.setdefault
    sequences: List[Sequence] = []
    pos = 0
    while m := _BULK_HEADER_RE.match(text, pos):
        rank, start = int(m[1]), m.end()
        end = text.find("}", start)  # a body has no `}` once comments are gone
        if end < 0:
            return None
        column = array("l")
        append = column.append
        # a send's envelope runs from this rank to the peer, a recv's back
        sources, destinations = {"send": rank}, {"": rank}
        while start < end:
            # a window ends just after its last `;`, so it cuts no statement
            stop = text.rfind(";", start, min(start + _WINDOW, end)) + 1
            stop = stop or text.find(";", start, end) + 1 or end
            found = _BULK_STATEMENT_RE.findall(text, start, stop)
            start = stop
            if not found:
                continue
            sends, tags, peers, comms = zip(*found)
            peers = list(map(int, peers))  # junk's empty peer raises ValueError
            if rank in peers:
                return None
            keys = zip(
                map(int, tags),
                map(sources.get, sends, peers),
                map(destinations.get, sends, peers),
                [int(c) if c else 0 for c in comms] if any(comms) else repeat(0),
            )
            for key in keys:
                append(setdefault(key, len(index)))
        sequences.append(Sequence(rank=rank, column=column))
        pos = end + 1
    if text[pos:].strip():
        return None
    return Model(sequences=sequences, mode=Mode.STRICT, space=SignatureSpace(list(index)))


def _raise_error(text: str) -> NoReturn:
    """Raise the ParseError of the first grammar unit of `text` that does not
    read: a process header, a statement or a closing brace, each matched by
    one regex and only re-scanned token by token when it fails."""
    header, close, statements = _HEADER_RE.match, _CLOSE_RE.match, _STATEMENT_RE.scanner
    used_ranks: set = set()
    pos = 0  # always just past a token, or 0
    while True:
        m = header(text, pos)
        if m is None:
            if _END_RE.match(text, pos):
                raise AssertionError("DSL text reads cleanly but the bulk reader declined it")
            _Rescan(text, pos).raise_header_error(used_ranks)
        try:
            rank = int(m[1])
        except ValueError:  # too many digits for int(); the re-scan names it
            _Rescan(text, pos).raise_header_error(used_ranks)
        if rank in used_ranks:
            raise _duplicate_process(text, m.start(1), rank)
        used_ranks.add(rank)
        # each match starts where the last one ended; None ends the body
        for m in iter(statements(text, m.end()).match, None):
            is_send, tag, peer, comm = m.groups()
            try:
                tag, peer, comm = int(tag), int(peer), int(comm) if comm else 0
            except ValueError:  # too many digits for int(); the re-scan names it
                _Rescan(text, m.start()).raise_statement_error()
            if peer == rank:
                where = "send to" if is_send else "recv from"
                message = f"process {rank} cannot {where} itself"
                raise ParseError(*_position(text, m.start(3)), message, "SelfMessage")
        pos = m.end()  # of the last statement, or of the header
        m = close(text, pos)
        if m is None:
            _Rescan(text, pos).raise_statement_error()
        pos = m.end()


def _position(text: str, offset: int) -> tuple:
    """1-based (line, column) of `offset`, with lines as str.splitlines counts them."""
    line, line_start = 1, 0
    for m in _LINE_BREAK_RE.finditer(text, 0, offset):
        line += 1
        line_start = m.end()
    return line, offset - line_start + 1


def _duplicate_process(text: str, offset: int, rank: int) -> ParseError:
    return ParseError(*_position(text, offset), f"process {rank} defined twice", "DuplicateProcess")


class _Rescan:
    """Token-by-token reading of one header or statement its regex rejected.

    The unit is read in grammar order, so the error names the first token
    that does not fit.  The unit starts at `pos`, just past the previous
    token, which is where an error at end of input points.
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

    def take(self) -> int:
        """Consume the current token; return its offset."""
        start = self.start
        self.end = start + len(self.tok)
        self._read()
        return start

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
            value = int(tok)
        except ValueError:  # more digits than int() converts
            raise self.error(f"{what} has too many digits ({len(tok)})", "BadInteger") from None
        self.take()
        return value

    def raise_header_error(self, used_ranks: set) -> NoReturn:
        self.expect("process")
        offset = self.start
        rank = self.integer("process rank")
        if rank in used_ranks:
            raise _duplicate_process(self.text, offset, rank)
        self.expect("{")
        raise AssertionError(f"process header at offset {offset} reads cleanly but did not match")

    def raise_statement_error(self) -> NoReturn:
        verb = self.tok
        if verb not in ("send", "recv"):
            raise self.error(f"expected 'send' or 'recv', found {verb!r}")
        offset = self.take()
        self.expect("tag")
        self.expect("=")
        self.integer("tag")
        self.expect("to" if verb == "send" else "from")
        self.integer("peer rank")
        if self.tok == "comm":
            self.take()
            self.expect("=")
            self.integer("communicator")
        self.expect(";")
        raise AssertionError(f"statement at offset {offset} reads cleanly but did not match")


_ABSTRACT_ALPHABET = (
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
)


def render_abstract(model: Model) -> str:
    """Abstract form, one character per signature.

    Signatures whose label is already a single character keep it; others
    (strict-model envelopes) are relabeled from a 62-character alphabet, so
    only models with at most 62 such signatures can be rendered.
    """
    rows = [seq.signatures for seq in model.sequences]
    labels: dict = {}
    taken = set()
    for row in rows:
        for sig in row:
            if sig in labels:
                continue
            label = model.space.label_of(sig)
            if len(label) == 1:
                labels[sig] = label
                taken.add(label)
    next_char = iter(c for c in _ABSTRACT_ALPHABET if c not in taken)
    for row in rows:
        for sig in row:
            if sig not in labels:
                label = next(next_char, None)
                if label is None:
                    raise ValueError(
                        "too many distinct signatures to render as abstract "
                        f"(alphabet has {len(_ABSTRACT_ALPHABET)} characters)"
                    )
                labels[sig] = label
    lines = [
        f"P{seq.rank}: {''.join(map(labels.__getitem__, row))}"
        for seq, row in zip(model.sequences, rows)
    ]
    return "\n".join(lines) + "\n"


def render_dsl(model: Model) -> str:
    if model.mode is not Mode.STRICT:
        raise ValueError("only strict models render as DSL")
    lines = []
    for seq in model.sequences:
        lines.append(f"process {seq.rank} {{")
        if seq.column is None:
            envelopes = [occ.envelope for occ in seq.occurrences]
        else:
            envelopes = map(model.space.envelope_of, seq.column)
        for env in envelopes:
            comm = f" comm={env.communicator}" if env.communicator != 0 else ""
            if env.source == seq.rank:  # a send sits at its envelope's source
                lines.append(f"  send tag={env.tag} to {env.destination}{comm};")
            else:
                lines.append(f"  recv tag={env.tag} from {env.source}{comm};")
        lines.append("}")
    return "\n".join(lines) + "\n"
