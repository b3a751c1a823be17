"""Parsers for the two input formats, plus pretty-printers.

Abstract format: optional ``#abstract`` header; each nonblank, non-comment
line is either ``P<rank>: <chars>`` or bare ``<chars>`` (bare lines get
ranks 0,1,2,... in order).  Every non-whitespace character is one message
occurrence.

DSL format (``#`` starts a comment that runs to the end of the line)::

    process 0 { send tag=1 to 2; recv tag=3 from 1; }

``send tag=t to j`` in process i builds Envelope(t, i, j, comm), role SEND;
``recv tag=t from i`` in process j builds Envelope(t, i, j, comm), role RECV;
``comm=c`` is optional and defaults to 0.  Whitespace and comments may
appear between any two tokens; error positions count lines as
``str.splitlines`` does.

The DSL is read one grammar unit at a time -- a process header, a statement,
a closing brace -- each with one compiled regex, so a successful parse makes
no token objects.  Only a unit whose regex fails is re-scanned token by
token, to report the first token that does not fit.
"""
from __future__ import annotations

import re
from typing import List, NoReturn, Optional

from .model import Envelope, MessageOccurrence, Mode, Model, Role, Sequence
from .signatures import SignatureSpace


class ParseError(Exception):
    """Positioned parse failure; line/column are 1-based."""

    def __init__(self, line: int, column: int, message: str, category: str = "Syntax"):
        self.line = line
        self.column = column
        self.message = message
        self.category = category
        super().__init__(f"{line}:{column}: {category}: {message}")


_DSL_START_RE = re.compile(r"\s*process(?!\S)")


def detect_format(text: str) -> Mode:
    """DSL iff the first nonblank token is ``process``; abstract otherwise."""
    return Mode.STRICT if _DSL_START_RE.match(text) else Mode.ABSTRACT


def parse_model(text: str) -> Model:
    if detect_format(text) is Mode.STRICT:
        return parse_dsl(text)
    return parse_abstract(text)


_RANKED_LINE_RE = re.compile(r"^P(\S*)\s*:\s*(.*)$")


def parse_abstract(text: str) -> Model:
    space = SignatureSpace()
    sequences: List[Sequence] = []
    used_ranks: set = set()
    auto_rank = 0
    # one shared occurrence per character: occurrences are immutable, and
    # interning in first-appearance order keeps the signature numbering
    occ_of: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        match = _RANKED_LINE_RE.match(line)
        if match:
            rank_text, body = match.groups()
            try:
                rank = int(rank_text)
            except ValueError:
                raise ParseError(lineno, 2, f"bad process rank {rank_text!r}", "BadInteger")
            if rank < 0:
                raise ParseError(lineno, 2, f"negative process rank {rank}", "BadInteger")
        else:
            rank, body = auto_rank, line
            auto_rank += 1
        if rank in used_ranks:
            raise ParseError(lineno, 1, f"process {rank} defined twice", "DuplicateProcess")
        used_ranks.add(rank)
        chars = "".join(body.split())
        for ch in dict.fromkeys(chars):
            if ch not in occ_of:
                occ_of[ch] = MessageOccurrence(space.intern_character(ch))
        sequences.append(Sequence(rank=rank, occurrences=list(map(occ_of.__getitem__, chars))))
    return Model(sequences=sequences, mode=Mode.ABSTRACT, space=space)


# The line breaks of str.splitlines; a comment ends at any of them.
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(rf"\r\n|[{_BREAKS}]")
# Whitespace and comments.  The lookahead keeps backtracking from ending a
# comment early and reading the rest of its line as code.
_SKIP = rf"\s*(?:#[^{_BREAKS}]*(?![^{_BREAKS}])\s*)*"
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


def parse_dsl(text: str) -> Model:
    space = SignatureSpace()
    signature_for = space.signature_for
    header, statement, close = _HEADER_RE.match, _STATEMENT_RE.match, _CLOSE_RE.match
    send, recv = Role.SEND, Role.RECV
    sequences: List[Sequence] = []
    used_ranks: set = set()
    pos = 0  # always just past a token, or 0
    while True:
        m = header(text, pos)
        if m is None:
            if _END_RE.match(text, pos):
                return Model(sequences=sequences, mode=Mode.STRICT, space=space)
            _Rescan(text, pos).raise_header_error(used_ranks)
        rank = int(m[1])
        if rank in used_ranks:
            raise _duplicate_process(text, m.start(1), rank)
        used_ranks.add(rank)
        pos = m.end()
        occurrences: list = []
        append = occurrences.append
        while True:
            m = statement(text, pos)
            if m is None:
                break
            is_send, tag, peer, comm = m.groups()
            peer = int(peer)
            if peer == rank:
                where = "send to" if is_send else "recv from"
                message = f"process {rank} cannot {where} itself"
                raise ParseError(*_position(text, m.start(3)), message, "SelfMessage")
            comm = int(comm) if comm else 0
            if is_send:
                env = Envelope(int(tag), rank, peer, comm)
                append(MessageOccurrence(signature_for(env), send, env))
            else:
                env = Envelope(int(tag), peer, rank, comm)
                append(MessageOccurrence(signature_for(env), recv, env))
            pos = m.end()
        m = close(text, pos)
        if m is None:
            _Rescan(text, pos).raise_statement_error()
        pos = m.end()
        sequences.append(Sequence(rank=rank, occurrences=occurrences))


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
        self.take()
        return int(tok)

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
    labels: dict = {}
    taken = set()
    for seq in model.sequences:
        for occ in seq.occurrences:
            if occ.signature in labels:
                continue
            label = model.space.label_of(occ.signature)
            if len(label) == 1:
                labels[occ.signature] = label
                taken.add(label)
    next_char = iter(c for c in _ABSTRACT_ALPHABET if c not in taken)
    for seq in model.sequences:
        for occ in seq.occurrences:
            if occ.signature not in labels:
                label = next(next_char, None)
                if label is None:
                    raise ValueError(
                        "too many distinct signatures to render as abstract "
                        f"(alphabet has {len(_ABSTRACT_ALPHABET)} characters)"
                    )
                labels[occ.signature] = label
    lines = [
        f"P{seq.rank}: {''.join(labels[o.signature] for o in seq.occurrences)}"
        for seq in model.sequences
    ]
    return "\n".join(lines) + "\n"


def render_dsl(model: Model) -> str:
    if model.mode is not Mode.STRICT:
        raise ValueError("only strict models render as DSL")
    lines = []
    for seq in model.sequences:
        lines.append(f"process {seq.rank} {{")
        for occ in seq.occurrences:
            env = occ.envelope
            comm = f" comm={env.communicator}" if env.communicator != 0 else ""
            if occ.role is Role.SEND:
                lines.append(f"  send tag={env.tag} to {env.destination}{comm};")
            else:
                lines.append(f"  recv tag={env.tag} from {env.source}{comm};")
        lines.append("}")
    return "\n".join(lines) + "\n"
