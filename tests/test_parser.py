import gc
import random
from collections import Counter
import time
import tracemalloc
from array import array
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from support import INLINE_SPACES, PAPER_DSL, SPACES, random_abstract_text, reference_parse_abstract
from syncheck import (
    Envelope,
    MessageOccurrence,
    Mode,
    Model,
    ParseError,
    Role,
    Sequence,
    SignatureSpace,
    parse_abstract,
    parse_dsl,
    parse_model,
    render_abstract,
    render_dsl,
)
from syncheck import parser
from syncheck.bench import GenSpec, generate
from syncheck.parser import detect_format


def _wide_rows(rng, distinct):
    """Two rows over the same `distinct` non-space characters, non-BMP ones
    included, each in its own random order."""
    codes = [c for c in range(0x21, 0x10000) if not 0xD800 <= c < 0xE000 and not chr(c).isspace()]
    chars = [chr(c) for c in codes[: distinct - 100] + list(range(0x10F000, 0x10F064))]
    return ["".join(rng.sample(chars, len(chars))) for _ in range(2)]


def _error_of(parse, text):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    return (err.category, err.line, err.column, err.message)


class TestAbstract:
    def test_paper_strings(self):
        model = parse_abstract("ab\nbc\nca")
        assert [s.rank for s in model.sequences] == [0, 1, 2]
        assert model.message_count == 6
        assert len(model.space) == 3
        assert model.mode is Mode.ABSTRACT

    def test_empty_input(self):
        model = parse_abstract("")
        assert model.sequences == ()
        assert model.message_count == 0

    def test_explicit_ranks_and_empty_sequence(self):
        model = parse_abstract("P3: ab\nP7:\n")
        assert [s.rank for s in model.sequences] == [3, 7]
        assert len(model.sequences[1]) == 0

    def test_duplicate_rank(self):
        with pytest.raises(ParseError) as exc:
            parse_abstract("P0: a\nP0: b")
        assert exc.value.category == "DuplicateProcess"
        assert exc.value.line == 2

    def test_bad_rank(self):
        with pytest.raises(ParseError) as exc:
            parse_abstract("Pxyz: a")
        assert exc.value.category == "BadInteger"

    def test_header_and_comments_skipped(self):
        model = parse_abstract("#abstract\n# comment\na\na\n")
        assert len(model.sequences) == 2

    def test_only_a_whole_line_is_a_comment(self):
        # after a rank or a character, `#` and the rest of the line are occurrences
        model = parse_abstract("# c\nP0: ab # note\n  # c")
        assert [s.rank for s in model.sequences] == [0]
        assert model.space.entries == ["a", "b", "#", "n", "o", "t", "e"]

    def test_roles_are_unspecified(self):
        # a parsed sequence is its signature column; characters have no envelope
        model = parse_abstract("ab\nab")
        assert all(s.occurrences is None for s in model.sequences)
        assert all(model.space.envelope_of(sig) is None for s in model.sequences for sig in s.column)

    def test_whitespace_in_body_ignored(self):
        model = parse_abstract("P0: a b\nP1: ab")
        assert len(model.sequences[0]) == 2

    def test_repeated_characters_share_one_occurrence(self):
        # one signature per character, in one array('i') column per sequence
        model = parse_abstract("abab\nba")
        first, second = model.sequences
        assert first.column == array("i", [0, 1, 0, 1])
        assert second.column == array("i", [1, 0])
        assert len(model.space) == 2

    @pytest.mark.parametrize(
        "rows",
        [
            # more distinct characters than 0xD800, so some signatures are
            # surrogate code points, and non-BMP characters among them
            _wide_rows(random.Random(1), 0xD800 + 700),
            _wide_rows(random.Random(2), 0xD800 + 5000),
            # a lone surrogate is a character like any other
            ["a\ud800b\U0001f600", "\U0001f600\ud800ba"],
            ["\udc00a\ud800", "\ud800\udc00a", "\udfff", "\udfff"],
            # ASCII, Latin-1, BMP and astral characters in one line
            ["a\xe9\u4e2d\U0001f600b", "\U0001f600b\u4e2da\xe9"],
            # a new ASCII character after the first non-ASCII one
            ["ab\xe9cd", "dc\xe9ba"],
            # an ASCII line whose signatures pass 127 at `c`: str.translate
            # leaves its ASCII fast path there, and new ASCII characters follow
            ["".join(map(chr, range(0x100, 0x17E))), "abaaacdcefg"],
            # more than 128 distinct characters in one line
            _wide_rows(random.Random(3), 400),
        ],
        ids=[
            "wide", "wider", "lone-surrogate", "lone-surrogates",
            "mixed", "ascii-after-non-ascii", "fast-path-left", "over-128",
        ],
    )
    def test_column_holds_the_signature_of_each_character(self, rows):
        model = parse_abstract("".join(f"P{rank}: {row}\n" for rank, row in enumerate(rows)))
        sig_of = {ch: sig for sig, ch in enumerate(model.space.entries)}
        assert model.space.entries == list(dict.fromkeys("".join(rows)))
        for seq, row in zip(model.sequences, rows):
            assert seq.column.typecode == "i"
            assert seq.column.tolist() == [sig_of[ch] for ch in row]

    # (category, line, column, message); one row per message the parser emits
    @pytest.mark.parametrize(
        "text, expected",
        [
        ('Pxyz: a', ('BadInteger', 1, 2, "bad process rank 'xyz'")),
        ('P-1: a', ('BadInteger', 1, 2, 'negative process rank -1')),
        ('P0: a\nP0: b', ('DuplicateProcess', 2, 1, 'process 0 defined twice')),
        ('a\r\nP0: b', ('DuplicateProcess', 2, 1, 'process 0 defined twice')),
        ('# c\n\x0cP1: a\x0cP1: b', ('DuplicateProcess', 4, 1, 'process 1 defined twice')),
        ('\tP: a', ('BadInteger', 1, 2, "bad process rank ''")),
        ('P0:a\n\nb', ('DuplicateProcess', 3, 1, 'process 0 defined twice')),
        ('#abstract\nab\n  # c\nP1: ba\u2028P1: c', ('DuplicateProcess', 5, 1, 'process 1 defined twice')),
        # a rank is a run of decimal digits, as in the DSL; int() would take these
        ('P+1: a', ('BadInteger', 1, 2, "bad process rank '+1'")),
        ('P1_0: a', ('BadInteger', 1, 2, "bad process rank '1_0'")),
        ('P-0: a', ('BadInteger', 1, 2, "bad process rank '-0'")),
        ('P\u00b2: a', ('BadInteger', 1, 2, "bad process rank '\u00b2'")),
        ('P-01: a', ('BadInteger', 1, 2, 'negative process rank -1')),
        ('P' + '1' * 5000 + ': a', ('BadInteger', 1, 2, f"bad process rank {'1' * 5000!r}")),
        ],
    )
    def test_error_positions(self, text, expected):
        assert _error_of(parse_abstract, text) == expected

    @pytest.mark.parametrize("text", ["P0:a:b\nP1: b:a", "P0: a:b\nP1 :b:a", "P0:a :b\nP1:b: a"])
    def test_rank_header_ends_at_its_first_colon(self, text):
        model = parse_abstract(text)
        assert [seq.rank for seq in model.sequences] == [0, 1]
        assert model.space.entries == ["a", ":", "b"]
        assert [seq.column.tolist() for seq in model.sequences] == [[0, 1, 2], [2, 1, 0]]

    def test_whitespace_of_every_kind_is_deleted(self):
        assert len(SPACES) == 29 and len(INLINE_SPACES) == 19
        spaced = parse_abstract("P0:" + "a".join(INLINE_SPACES) + "\nP1:b" + "".join(INLINE_SPACES) + "a")
        plain = parse_abstract("P0: " + "a" * 18 + "\nP1: ba")
        assert [(seq.rank, seq.column) for seq in spaced.sequences] == [(seq.rank, seq.column) for seq in plain.sequences]
        assert spaced.space.entries == plain.space.entries == ["a", "b"]

    def test_agrees_with_the_reference_reader(self):
        rng = random.Random(29)
        outcomes = Counter()
        for _ in range(4000):
            text = random_abstract_text(rng)
            try:
                expected = reference_parse_abstract(text)
            except ParseError as exc:
                assert _error_of(parse_abstract, text) == (exc.category, exc.line, exc.column, exc.message), repr(text)
                outcomes[exc.category] += 1
                continue
            model = parse_abstract(text)
            assert [(seq.rank, seq.column) for seq in model.sequences] == [
                (seq.rank, seq.column) for seq in expected.sequences
            ], repr(text)
            assert model.space.entries == expected.space.entries, repr(text)
            outcomes["model"] += 1
        # each outcome is common enough to be compared often
        assert min(outcomes[kind] for kind in ("model", "BadInteger", "DuplicateProcess")) >= 200, outcomes


class TestDsl:
    def test_paper_program(self):
        model = parse_dsl(PAPER_DSL)
        assert [s.rank for s in model.sequences] == [0, 1, 2]
        assert model.message_count == 6
        assert len(model.space) == 3
        assert model.mode is Mode.STRICT

    def test_send_builds_envelope_from_context(self):
        model = parse_dsl("process 0 {send tag=5 to 1 comm=2;} process 1 {recv tag=5 from 0 comm=2;}")
        sig = model.sequences[0].column[0]
        env = model.space.envelope_of(sig)
        assert env == (5, 0, 1, 2)
        assert env.source == model.sequences[0].rank  # so the occurrence is a send
        assert sig == model.sequences[1].column[0]

    def test_comm_defaults_to_zero(self):
        model = parse_dsl("process 0 {send tag=1 to 1;} process 1 {recv tag=1 from 0;}")
        assert model.space.envelope_of(model.sequences[0].column[0]).communicator == 0

    def test_self_message(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 0 {send tag=1 to 0;}")
        assert exc.value.category == "SelfMessage"

    def test_recv_from_self(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 2 {recv tag=1 from 2;}")
        assert exc.value.category == "SelfMessage"

    def test_duplicate_process(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 0 {} process 0 {}")
        assert exc.value.category == "DuplicateProcess"

    def test_empty_blocks(self):
        model = parse_dsl("process 0 {} process 1 {}")
        assert len(model.sequences) == 2
        assert model.message_count == 0

    def test_send_requires_to(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 0 {send tag=1 from 1;}")
        assert exc.value.category == "Syntax"

    def test_bad_integer(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 0 {send tag=x to 1;}")
        assert exc.value.category == "BadInteger"

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_dsl("process 0 {send tag=1")

    def test_comments_and_whitespace_insensitive(self):
        model = parse_dsl(
            "# header\nprocess 0 { send tag = 1 to 1 ; # trailing\n}\nprocess 1 {recv tag=1 from 0;}"
        )
        assert model.message_count == 2

    def test_error_positions_are_one_based(self):
        with pytest.raises(ParseError) as exc:
            parse_dsl("process 0 {\n  oops tag=1 to 1;\n}")
        assert exc.value.line == 2
        assert exc.value.column == 3

    # (category, line, column, message); one row per message the parser
    # emits, plus end of input, comments, tabs and each str.splitlines break
    @pytest.mark.parametrize(
        "text, expected",
        [
        ('procss 0 {}', ('Syntax', 1, 1, "expected 'process', found 'procss'")),
        ('process x {}', ('BadInteger', 1, 9, "expected process rank (nonnegative integer), found 'x'")),
        ('process 0 {} process 0 {}', ('DuplicateProcess', 1, 22, 'process 0 defined twice')),
        ('process 0 {} process 0 oops', ('DuplicateProcess', 1, 22, 'process 0 defined twice')),
        ('process 0 send', ('Syntax', 1, 11, "expected '{', found 'send'")),
        ('process 0 { oops tag=1 to 1; }', ('Syntax', 1, 13, "expected 'send' or 'recv', found 'oops'")),
        ('process 0 { sendtag=1 to 1; }', ('Syntax', 1, 13, "expected 'send' or 'recv', found 'sendtag'")),
        ('process 0 { send tig=1 to 1; }', ('Syntax', 1, 18, "expected 'tag', found 'tig'")),
        ('process 0 { send tag 1 to 1; }', ('Syntax', 1, 22, "expected '=', found '1'")),
        ('process 0 { send tag=x to 1; }', ('BadInteger', 1, 22, "expected tag (nonnegative integer), found 'x'")),
        ('process 0 { send tag=1 from 1; }', ('Syntax', 1, 24, "expected 'to', found 'from'")),
        ('process 0 { recv tag=1 to 1; }', ('Syntax', 1, 24, "expected 'from', found 'to'")),
        ('process 0 { send tag=1 to1; }', ('Syntax', 1, 24, "expected 'to', found 'to1'")),
        ('process 0 { send tag=1 to y; }', ('BadInteger', 1, 27, "expected peer rank (nonnegative integer), found 'y'")),
        ('process 0 { send tag=1 to 1 comm 2; }', ('Syntax', 1, 34, "expected '=', found '2'")),
        ('process 0 { send tag=1 to 1 comm=z; }', ('BadInteger', 1, 34, "expected communicator (nonnegative integer), found 'z'")),
        ('process 0 { send tag=1 to 1 }', ('Syntax', 1, 29, "expected ';', found '}'")),
        ('process 0 { send tag=1 to 0 }', ('Syntax', 1, 29, "expected ';', found '}'")),
        ('process 0 { send tag=1 to 0; }', ('SelfMessage', 1, 27, 'process 0 cannot send to itself')),
        ('process 2 { recv tag=1 from 2 comm=1; }', ('SelfMessage', 1, 29, 'process 2 cannot recv from itself')),
        ('process 0 { send tag=1 to 1; } }', ('Syntax', 1, 32, "expected 'process', found '}'")),
        ('process', ('BadInteger', 1, 8, 'expected process rank (nonnegative integer), found None (at end of input)')),
        ('process 0', ('Syntax', 1, 10, "expected '{', found None (at end of input)")),
        ('process 0 {', ('Syntax', 1, 12, "expected 'send' or 'recv', found None (at end of input)")),
        ('process 0 { send tag=1', ('Syntax', 1, 23, "expected 'to', found None (at end of input)")),
        ('process 0 { send tag=1 to 1 # trailing\n\n', ('Syntax', 1, 28, "expected ';', found None (at end of input)")),
        ('# header\nprocess 0 { # c\n  oops }', ('Syntax', 3, 3, "expected 'send' or 'recv', found 'oops'")),
        ('process 0 {\n\tsend\ttag=1\tto\t1\t}', ('Syntax', 2, 18, "expected ';', found '}'")),
        ('process 0 {\r\n  send tag=1 to 1;\r\n  bad\r\n}', ('Syntax', 3, 3, "expected 'send' or 'recv', found 'bad'")),
        ('process 0 {\x0c send tag=1 to 1;\x0cbad }', ('Syntax', 3, 1, "expected 'send' or 'recv', found 'bad'")),
        ('process 0 { # c\x0c oops }', ('Syntax', 2, 2, "expected 'send' or 'recv', found 'oops'")),
        ('process 0 { # c\u2028send tag=1 to 0; }', ('SelfMessage', 2, 15, 'process 0 cannot send to itself')),
        ('process 0 { # c\x85\x1c\x1d\x1e send tag=1 to 0; }', ('SelfMessage', 5, 16, 'process 0 cannot send to itself')),
        ('process 0 { # c\x0b send tag=1 from 1; }', ('Syntax', 2, 13, "expected 'to', found 'from'")),
        ('process 0 {\r send tag=1 to 1;\r\n\rx }', ('Syntax', 4, 1, "expected 'send' or 'recv', found 'x'")),
        # integers with more digits than int() converts (4300 by default)
        ('process ' + '1' * 5000 + ' {}', ('BadInteger', 1, 9, 'process rank has too many digits (5000)')),
        ('process 0 {}\nprocess\n' + '2' * 4301 + ' {}', ('BadInteger', 3, 1, 'process rank has too many digits (4301)')),
        ('process 0 { send tag=' + '1' * 5000 + ' to 1; }', ('BadInteger', 1, 22, 'tag has too many digits (5000)')),
        ('process 0 { send tag=1 to ' + '1' * 5000 + '; }', ('BadInteger', 1, 27, 'peer rank has too many digits (5000)')),
        ('process 0 { recv tag=' + '1' * 5000 + ' from 0; }', ('BadInteger', 1, 22, 'tag has too many digits (5000)')),
        ('process 0 { send tag=1 to 1 comm=' + '1' * 5000 + '; }', ('BadInteger', 1, 34, 'communicator has too many digits (5000)')),
        ],
    )
    def test_error_positions(self, text, expected):
        assert _error_of(parse_dsl, text) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("process \u00b2 {}", (1, 9, "expected process rank (nonnegative integer), found '\u00b2'")),
            ("process 0 { send tag=\u00b9 to 1; }", (1, 22, "expected tag (nonnegative integer), found '\u00b9'")),
        ],
    )
    def test_digit_that_is_not_decimal_is_bad_integer(self, text, expected):
        assert _error_of(parse_dsl, text) == ("BadInteger",) + expected

    def test_roles_match_ranks_by_construction(self):
        # each statement's envelope has the enclosing rank at the end its verb
        # names: a send at the source, a recv at the destination
        model = parse_dsl(PAPER_DSL)
        envelopes = [[tuple(model.space.envelope_of(sig)) for sig in seq.column] for seq in model.sequences]
        assert envelopes == [
            [(1, 0, 2, 0), (2, 0, 1, 0)],
            [(2, 0, 1, 0), (3, 1, 2, 0)],
            [(3, 1, 2, 0), (1, 0, 2, 0)],
        ]
        verbs = [
            ["send" if env[1] == seq.rank else "recv" for env in row]
            for seq, row in zip(model.sequences, envelopes)
        ]
        assert verbs == [["send", "send"], ["recv", "send"], ["recv", "recv"]]


def test_parsed_model_retains_at_most_100_bytes_per_occurrence():
    # random P=64 gives n/2 distinct envelopes, the most a model can have:
    # the column (8 B per occurrence) plus the space's envelope tuples; the
    # parser's interning dict is dropped
    text = render_dsl(generate(GenSpec("random", 64, 3125, seed=1)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = parse_dsl(text)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert model.message_count == 200_000
    assert kept / model.message_count <= 100


def test_abstract_parse_peak_stays_at_most_10_bytes_per_occurrence():
    # the column (4 B per occurrence) is built from its UTF-32 bytes (4 B);
    # a list of signatures converted to the column peaked at ~14 B
    text = "P0: " + "ab" * 100_000 + "\nP1: " + "ba" * 100_000 + "\n"
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = parse_abstract(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model.message_count == 400_000
    assert peak / model.message_count <= 10


def test_every_column_is_4_bytes_wide():
    abstract = parse_abstract("ab\nba\n")
    dsl = parse_dsl(PAPER_DSL)
    assert [s.column.typecode for s in abstract.sequences + dsl.sequences] == ["i"] * 5
    assert array("i").itemsize == 4


class TestDetectionAndRoundTrip:
    def test_detect_dsl(self):
        assert detect_format("  \nprocess 0 {}") is Mode.STRICT
        assert detect_format("\x0c\r\nprocess\n0 {}") is Mode.STRICT
        assert detect_format("process{}") is Mode.ABSTRACT
        assert detect_format("# two ranks\nprocess 0 {}") is Mode.STRICT
        assert detect_format("  # a\n\t# b\x85process 0 {}") is Mode.STRICT
        assert detect_format("#\nprocess 0 {}") is Mode.STRICT
        # the header keyword ends where an identifier would
        assert detect_format("#abstractions are not used here\nprocess 0 {}") is Mode.STRICT
        assert detect_format("#abstract_2\nprocess 0 {}") is Mode.STRICT
        assert detect_format("  #abstract2 # c\nprocess 0 {}") is Mode.STRICT

    def test_detect_abstract(self):
        assert detect_format("#abstract\nab") is Mode.ABSTRACT
        assert detect_format("#abstract\nprocess 0 {}") is Mode.ABSTRACT
        assert detect_format("  #abstract\n# c\nprocess 0 {}") is Mode.ABSTRACT
        assert detect_format("#abstract # two ranks\nprocess 0 {}") is Mode.ABSTRACT
        assert detect_format("#abstract-pairs\nprocess 0 {}") is Mode.ABSTRACT
        assert detect_format("#abstract") is Mode.ABSTRACT
        assert detect_format("# c\nab\nba") is Mode.ABSTRACT
        assert detect_format("# process 0 {}\nab") is Mode.ABSTRACT
        assert detect_format("ab\nbc") is Mode.ABSTRACT
        assert detect_format("") is Mode.ABSTRACT

    def test_parse_model_dispatches(self):
        assert parse_model(PAPER_DSL).mode is Mode.STRICT
        assert parse_model("ab\nbc\nca").mode is Mode.ABSTRACT

    def _same(self, a, b):
        # a parsed occurrence's role follows from its rank and envelope
        assert [s.rank for s in a.sequences] == [s.rank for s in b.sequences]
        for sa, sb in zip(a.sequences, b.sequences):
            assert sa.column == sb.column
            assert list(map(a.space.label_of, sa.column)) == list(map(b.space.label_of, sb.column))
            assert list(map(a.space.envelope_of, sa.column)) == list(map(b.space.envelope_of, sb.column))

    def test_abstract_round_trip(self):
        model = parse_abstract("ab\nbc\nca")
        again = parse_abstract(render_abstract(model))
        self._same(model, again)

    def test_dsl_round_trip(self):
        model = parse_dsl(PAPER_DSL)
        again = parse_dsl(render_dsl(model))
        self._same(model, again)

    def test_render_dsl_rejects_abstract_models(self):
        with pytest.raises(ValueError):
            render_dsl(parse_abstract("ab\nab"))

    @staticmethod
    def _reading_order(model):
        """The model's signatures renumbered 0, 1, ... by first appearance,
        reading the sequences in order: the numbering a parser gives."""
        number: dict = {}
        return [
            [number.setdefault(o.signature, len(number)) for o in seq.occurrences]
            for seq in model.sequences
        ]

    @pytest.mark.parametrize("pattern, processes", [("pairs", 4), ("ring", 5), ("random", 6)])
    @pytest.mark.parametrize("seed", range(4))
    def test_generated_models_round_trip(self, pattern, processes, seed):
        model = generate(GenSpec(pattern, processes, 5, seed=seed))
        signatures = self._reading_order(model)
        ranks = [s.rank for s in model.sequences]

        dsl = parse_dsl(render_dsl(model))
        assert [s.rank for s in dsl.sequences] == ranks
        assert [s.column.tolist() for s in dsl.sequences] == signatures
        for ours, theirs in zip(dsl.sequences, model.sequences):
            envelopes = list(map(dsl.space.envelope_of, ours.column))
            assert envelopes == [o.envelope for o in theirs.occurrences]
            roles = [Role.SEND if env.source == ours.rank else Role.RECV for env in envelopes]
            assert roles == [o.role for o in theirs.occurrences]

        abstract = parse_abstract(render_abstract(model))
        assert [s.rank for s in abstract.sequences] == ranks
        assert [s.column.tolist() for s in abstract.sequences] == signatures
        assert len(abstract.space) == len(dsl.space) == len(model.space)


@pytest.mark.parametrize("pattern", ["random", "ring", "pairs"])
@pytest.mark.parametrize("seed", range(4))
def test_dsl_signatures_follow_first_appearance(pattern, seed):
    # bodies of about 30 KB, so each is read in more than one window
    model = generate(GenSpec(pattern, 4, 1000, seed=seed))
    index: dict = {}
    columns = [
        [index.setdefault(tuple(occ.envelope), len(index)) for occ in seq.occurrences]
        for seq in model.sequences
    ]
    parsed = parse_dsl(render_dsl(model))
    assert parsed.space.entries == list(index)
    assert [seq.column.tolist() for seq in parsed.sequences] == columns


_RENDERINGS = [
    render_dsl(parse_dsl(PAPER_DSL)),
    render_dsl(generate(GenSpec("random", 4, 3, seed=1))),
    render_dsl(parse_dsl("process 0 {send tag=5 to 1 comm=2;} process 1 {recv tag=5 from 0 comm=2;}")),
    render_abstract(parse_abstract("ab\nbc\nca")),
]


@settings(max_examples=400, deadline=None)
@given(
    base=st.sampled_from(_RENDERINGS),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete", "replace")),
            st.integers(0, 10**4),
            st.integers(0, 255) | st.sampled_from(b"\xb2\xb9\x85\x0b\x0c\x1c\r\n\t #;{}=0"),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_mutated_renderings_parse_or_raise_parse_error(base, edits):
    """Byte-level edits of a rendering (bytes read as Latin-1, so line breaks
    such as \\x85 and digits such as \\xb2 come up) either parse or raise
    ParseError, in every parser."""
    data = bytearray(base.encode("latin-1"))
    for op, where, byte in edits:
        i = where % (len(data) + 1)
        if op == "insert":
            data.insert(i, byte)
        elif data:
            i = min(i, len(data) - 1)
            if op == "delete":
                del data[i]
            else:
                data[i] = byte
    text = data.decode("latin-1")
    for parse in (parse_dsl, parse_abstract, parse_model):
        try:
            parse(text)
        except ParseError:
            pass


def _bulk(text):
    """The bulk reader's model of `text`, or None where it declines."""
    read = parser._read_bulk(text)
    return read if isinstance(read, Model) else None


def _entries(model):
    return [(s.rank, s.column.tolist()) for s in model.sequences], model.space.entries


def _error_from_the_start(text):
    """The ParseError of the token reader run over all of `text`, or None
    where it reads cleanly (and raises AssertionError)."""
    try:
        parser._Rescan(text, 0).raise_error(None, set())
    except ParseError as err:
        return (err.category, err.line, err.column, err.message)
    except AssertionError:
        return None


_DSL_RENDERINGS = [
    PAPER_DSL,
    render_dsl(generate(GenSpec("random", 4, 3, seed=1))),
    "process 0 {send tag=5 to 1 comm=2;} process 1 {recv tag=5 from 0 comm=0;}",
    "# a } b\nprocess 0 { # ; }\n send tag = 05 to 1 comm=0 ; }\nprocess 01{recv tag=٥ from 0;}# end",
    # a comment on every line, holding the characters that end units
    "".join(f"{line} # c }} ; {{\n" for line in render_dsl(generate(GenSpec("random", 3, 4, seed=2))).splitlines()),
]


# process 0's body runs to about 68 KB, four windows of _WINDOW characters
_LONG_PAIRS = render_dsl(generate(GenSpec("pairs", 2, 3000)))


def _bad_statement_in_a_long_body(test):
    """Examples with one bad statement in the middle of process 0's body, or
    last in it: a self-message, a tag of more digits than int() converts,
    or junk, which a window of _WINDOW characters reads after appending
    and interning the statements before it."""
    body_end = _LONG_PAIRS.index("}")
    for statement in (_LONG_PAIRS.index("\n  ", body_end // 2) + 3, _LONG_PAIRS.rindex("\n  ", 0, body_end) + 3):
        peer = _LONG_PAIRS.index(";", statement) - 1  # rank 1, one digit
        tag = _LONG_PAIRS.index("=", statement) + 1
        for where, piece in ((peer, "0"), (tag, "1" * 4301), (statement, "x")):
            for window in (parser._WINDOW, 30):
                test = example(base=_LONG_PAIRS, edits=[("replace", where, piece)], window=window)(test)
    return test


@_bad_statement_in_a_long_body
@settings(max_examples=600, deadline=None)
@given(
    base=st.sampled_from(_DSL_RENDERINGS),
    edits=st.lists(
        st.tuples(
            st.sampled_from(("insert", "delete", "replace")),
            st.integers(0, 10**4),
            st.characters(max_codepoint=0x3000)
            | st.sampled_from(["#", "}", "{", ";", "\x85", "١", "0", " ", "\n", "comm=", " to "]),
        ),
        min_size=1,
        max_size=4,
    ),
    window=st.sampled_from((parser._WINDOW, 30)),
)
def test_bulk_reader_declines_exactly_where_reading_from_the_start_finds_an_error(base, edits, window):
    """On edited renderings the bulk reader returns a model exactly when the
    token reader, run from offset 0, reads the text cleanly, and parse_dsl
    returns that model; otherwise parse_dsl, which resumes the token reader
    where the bulk reader stopped, raises the error read from the start.
    Windows of 30 characters cut every body many times."""
    text = list(base)
    for op, where, piece in edits:
        i = where % (len(text) + 1)
        if op == "insert":
            text.insert(i, piece)
        elif text:
            i = min(i, len(text) - 1)
            if op == "delete":
                del text[i]
            else:
                text[i] = piece
    text = "".join(text)
    expected = _error_from_the_start(text)
    with patch.object(parser, "_WINDOW", window):
        bulk = _bulk(text)
        if expected is None:
            assert bulk is not None
            assert _entries(parse_dsl(text)) == _entries(bulk)
        else:
            assert bulk is None
            assert _error_of(parse_dsl, text) == expected


def test_error_reader_reads_as_many_tokens_at_n_as_at_4n(monkeypatch):
    """The token reader resumes at the statement where the bulk reader
    stopped, not at the body's header, so an error in the last statement of
    a long body, or a missing last `}`, costs a few tokens at any n."""
    reads = []

    class CountingTokenRe:
        def match(self, text, pos):
            reads.append(pos)
            return token_re.match(text, pos)

    token_re = parser._TOKEN_RE
    monkeypatch.setattr(parser, "_TOKEN_RE", CountingTokenRe())
    counts = {}
    for m in (4_000, 16_000):
        text = render_dsl(generate(GenSpec("pairs", 2, m)))
        tag = text.rindex("tag=") + len("tag=")
        line = text.count("\n", 0, tag) + 1
        line_start = text.rindex("\n", 0, tag) + 1
        for name, bad, expected in [
            ("bad tag", text[:tag] + "x" + text[tag:], ("BadInteger", line, tag - line_start + 1)),
            # at end of input, the error points just past the last `;`
            ("no last }", text[: text.rindex("}")], ("Syntax", line, text.index(";", tag) - line_start + 2)),
        ]:
            reads.clear()
            assert _error_of(parse_dsl, bad)[:3] == expected
            counts[name, m] = len(reads)
    for name in ("bad tag", "no last }"):
        assert counts[name, 4_000] == counts[name, 16_000] < 1000


# Hostile but valid renderings: any whitespace and comments between tokens,
# leading zeros, other Unicode decimal digits, and `comm=0` or no `comm`.
_SPACES = (" ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u2028", "\u3000")
_COMMENT_ENDS = ("\n", "\r", "\r\n", "\x85", "\u2029")
_COMMENTS = ("#", "# c }", "#;", "# } ; {", "#abstract")
_DIGITS = ("0123456789", "٠١٢٣٤٥٦٧٨٩", "０１２３４５６７８９")


def _hostile_dsl(model, rnd):
    def gap(required=False):
        parts = []
        for _ in range(rnd.randint(int(required), 2)):
            if rnd.random() < 0.3:
                parts.append(rnd.choice(_COMMENTS) + rnd.choice(_COMMENT_ENDS))
            else:
                parts.append(rnd.choice(_SPACES))
        return "".join(parts)

    def number(value):
        digits = rnd.choice(_DIGITS)
        return "".join(digits[int(d)] for d in "0" * rnd.randint(0, 2) + str(value))

    out = []
    for seq in model.sequences:
        out += [gap(), "process", gap(True), number(seq.rank), gap(), "{"]
        for occ in seq.occurrences:
            tag, src, dst, comm = occ.envelope
            send = occ.role is Role.SEND
            out += [gap(), "send" if send else "recv", gap(True), "tag", gap(), "=", gap(), number(tag), gap()]
            out += ["to" if send else "from", gap(True), number(dst if send else src)]
            if comm or rnd.random() < 0.5:
                out += [gap(), "comm", gap(), "=", gap(), number(comm)]
            out += [gap(), ";"]
        out += [gap(), "}"]
    return "".join(out + [gap()])


@st.composite
def _api_models(draw):
    """A strict model built through the API: a few ranks, each with a few
    statements whose peer is another rank."""
    ranks = draw(st.lists(st.integers(0, 300), min_size=1, max_size=4, unique=True))
    values = st.integers(0, 3) | st.integers(0, 10**30)
    space = SignatureSpace()
    sequences = []
    for rank in ranks:
        occurrences = []
        for send, tag, peer, comm in draw(
            st.lists(st.tuples(st.booleans(), values, st.integers(0, 300), st.sampled_from((0, 0, 1, 10**6)))),
        ):
            if peer == rank:
                continue
            env = Envelope(tag, rank, peer, comm) if send else Envelope(tag, peer, rank, comm)
            role = Role.SEND if send else Role.RECV
            occurrences.append(MessageOccurrence(space.signature_for(env), role, env))
        sequences.append(Sequence(rank=rank, occurrences=occurrences))
    return Model(sequences=sequences, mode=Mode.STRICT, space=space)


@settings(max_examples=200, deadline=None)
@given(model=_api_models(), rnd=st.randoms(use_true_random=False))
def test_hostile_renderings_parse_to_the_api_model(model, rnd):
    text = _hostile_dsl(model, rnd)
    parsed = parse_dsl(text)
    assert _bulk(text) is not None
    assert [s.rank for s in parsed.sequences] == [s.rank for s in model.sequences]
    for ours, theirs in zip(parsed.sequences, model.sequences):
        assert list(map(parsed.space.envelope_of, ours.column)) == [o.envelope for o in theirs.occurrences]
    # the same signatures as the plain rendering: spellings of a number merge
    assert _entries(parsed) == _entries(parse_dsl(render_dsl(model)))


@pytest.mark.parametrize("gap", [" " * 20_000, "# " + "c" * 20_000 + "\n"], ids=["blanks", "comment"])
def test_long_gap_before_a_brace_parses_in_linear_time(gap):
    # findall over a blank run with nothing after it tries a match at each
    # blank, in time quadratic in the run (3 s for 10,000 on a 2-CPU VM)
    text = "process 0 { send tag=1 to 1; " + gap + "}\nprocess 1 { recv tag=1 from 0; }"
    started = time.perf_counter()
    assert parse_dsl(text).message_count == 2
    assert time.perf_counter() - started < 1.0


def test_parse_peak_stays_at_most_120_bytes_per_occurrence():
    # one body of 10^5 statements: the bulk reader's findall windows keep
    # its transient tuples few, where one findall per body reaches ~190 B
    text = render_dsl(generate(GenSpec("pairs", 2, 100_000)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = parse_dsl(text)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert model.message_count == 200_000
    assert peak / model.message_count <= 120
