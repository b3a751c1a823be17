import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import PAPER_DSL
from syncheck import (
    Mode,
    ParseError,
    Role,
    parse_abstract,
    parse_dsl,
    parse_model,
    render_abstract,
    render_dsl,
)
from syncheck.bench import GenSpec, generate
from syncheck.parser import detect_format


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
        assert model.sequences == []
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

    def test_roles_are_unspecified(self):
        model = parse_abstract("ab\nab")
        assert all(o.role is Role.UNSPECIFIED for s in model.sequences for o in s.occurrences)
        assert all(o.envelope is None for s in model.sequences for o in s.occurrences)

    def test_whitespace_in_body_ignored(self):
        model = parse_abstract("P0: a b\nP1: ab")
        assert len(model.sequences[0]) == 2

    def test_repeated_characters_share_one_occurrence(self):
        model = parse_abstract("abab\nba")
        first, second = model.sequences
        assert first.occurrences[0] is first.occurrences[2] is second.occurrences[1]
        assert [o.signature for o in first.occurrences] == [0, 1, 0, 1]

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
        ],
    )
    def test_error_positions(self, text, expected):
        assert _error_of(parse_abstract, text) == expected


class TestDsl:
    def test_paper_program(self):
        model = parse_dsl(PAPER_DSL)
        assert [s.rank for s in model.sequences] == [0, 1, 2]
        assert model.message_count == 6
        assert len(model.space) == 3
        assert model.mode is Mode.STRICT

    def test_send_builds_envelope_from_context(self):
        model = parse_dsl("process 0 {send tag=5 to 1 comm=2;} process 1 {recv tag=5 from 0 comm=2;}")
        occ = model.sequences[0].occurrences[0]
        assert occ.role is Role.SEND
        assert occ.envelope == (5, 0, 1, 2)
        assert occ.signature == model.sequences[1].occurrences[0].signature

    def test_comm_defaults_to_zero(self):
        model = parse_dsl("process 0 {send tag=1 to 1;} process 1 {recv tag=1 from 0;}")
        assert model.sequences[0].occurrences[0].envelope.communicator == 0

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
        model = parse_dsl(PAPER_DSL)
        for seq in model.sequences:
            for occ in seq.occurrences:
                if occ.role is Role.SEND:
                    assert seq.rank == occ.envelope.source
                else:
                    assert seq.rank == occ.envelope.destination


class TestDetectionAndRoundTrip:
    def test_detect_dsl(self):
        assert detect_format("  \nprocess 0 {}") is Mode.STRICT
        assert detect_format("\x0c\r\nprocess\n0 {}") is Mode.STRICT
        assert detect_format("process{}") is Mode.ABSTRACT

    def test_detect_abstract(self):
        assert detect_format("#abstract\nab") is Mode.ABSTRACT
        assert detect_format("ab\nbc") is Mode.ABSTRACT
        assert detect_format("") is Mode.ABSTRACT

    def test_parse_model_dispatches(self):
        assert parse_model(PAPER_DSL).mode is Mode.STRICT
        assert parse_model("ab\nbc\nca").mode is Mode.ABSTRACT

    def _same(self, a, b):
        assert [s.rank for s in a.sequences] == [s.rank for s in b.sequences]
        for sa, sb in zip(a.sequences, b.sequences):
            assert [o.signature for o in sa.occurrences] == [o.signature for o in sb.occurrences]
            assert [o.role for o in sa.occurrences] == [o.role for o in sb.occurrences]
            assert [o.envelope for o in sa.occurrences] == [o.envelope for o in sb.occurrences]

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
        assert [[o.signature for o in s.occurrences] for s in dsl.sequences] == signatures
        for ours, theirs in zip(dsl.sequences, model.sequences):
            assert [o.role for o in ours.occurrences] == [o.role for o in theirs.occurrences]
            assert [o.envelope for o in ours.occurrences] == [o.envelope for o in theirs.occurrences]
            assert [dsl.space.envelope_of(o.signature) for o in ours.occurrences] == [
                o.envelope for o in theirs.occurrences
            ]

        abstract = parse_abstract(render_abstract(model))
        assert [s.rank for s in abstract.sequences] == ranks
        assert [[o.signature for o in s.occurrences] for s in abstract.sequences] == signatures
        assert len(abstract.space) == len(dsl.space) == len(model.space)


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
