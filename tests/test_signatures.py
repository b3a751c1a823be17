import re
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syncheck import Envelope, Illegal, Mode, Model, NoDeadlock, Sequence, SignatureSpace, check, parse_abstract


def test_first_issue_is_zero():
    space = SignatureSpace()
    assert space.signature_for(Envelope(tag=7, source=0, destination=2, communicator=0)) == 0


def test_retrieval_is_idempotent():
    space = SignatureSpace()
    env = Envelope(tag=7, source=0, destination=2, communicator=0)
    assert space.signature_for(env) == 0
    assert space.signature_for(env) == 0
    assert len(space) == 1


def test_distinct_envelopes_get_dense_values():
    space = SignatureSpace()
    assert space.signature_for(Envelope(tag=7, source=0, destination=2)) == 0
    assert space.signature_for(Envelope(tag=7, source=0, destination=1)) == 1
    assert space.signature_for(Envelope(tag=8, source=0, destination=2)) == 2


def test_self_message_envelope_rejected():
    space = SignatureSpace()
    with pytest.raises(ValueError, match="self-message"):
        space.signature_for(Envelope(tag=1, source=4, destination=4))


@pytest.mark.parametrize("entry", [(1, 0, 1, 0), [1, 0, 1, 0], "1,0,1,0", None], ids=["tuple", "list", "str", "None"])
def test_non_envelope_is_a_type_error_that_names_it(entry):
    space = SignatureSpace()
    with pytest.raises(TypeError, match=rf"expected an Envelope, got {type(entry).__name__} "):
        space.signature_for(entry)
    assert len(space) == 0


def test_quick_test_leaves_odd_fields_to_the_full_check():
    space = SignatureSpace()
    for env, message in [
        (Envelope(True, 0, 1), "tag must be a nonnegative integer, got True"),
        (Envelope(1, 0, 1, -1), "communicator must be a nonnegative integer, got -1"),
        (Envelope(1, 0.0, 1), "source must be a nonnegative integer, got 0.0"),
    ]:
        with pytest.raises(ValueError, match=message):
            space.signature_for(env)
    assert len(space) == 0


def test_round_trip_envelope_of():
    space = SignatureSpace()
    env = Envelope(tag=7, source=0, destination=2, communicator=0)
    assert space.envelope_of(space.signature_for(env)) == env


def test_envelope_of_abstract_signature_is_none():
    space = SignatureSpace()
    assert space.envelope_of(space.intern_character("a")) is None


def test_envelope_of_unknown_signature_raises():
    space = SignatureSpace()
    space.intern_character("a")
    with pytest.raises(KeyError):
        space.envelope_of(99)


def test_interning_characters():
    space = SignatureSpace()
    assert space.intern_character("a") == 0
    assert space.intern_character("b") == 1
    assert space.intern_character("a") == 0


def test_interning_paper_strings_yields_three_signatures():
    space = SignatureSpace()
    for ch in "ab" "bc" "ca":
        space.intern_character(ch)
    assert len(space) == 3


def test_labels_are_stable_symbols():
    space = SignatureSpace()
    sig = space.signature_for(Envelope(tag=1, source=0, destination=2, communicator=3))
    assert space.label_of(sig) == "1,0,2,3"
    characters = SignatureSpace()  # a space of envelopes refuses a character
    assert characters.label_of(characters.intern_character("x")) == "x"


def test_many_distinct_characters_stay_injective():
    space = SignatureSpace()
    values = {space.intern_character(f"c{i}") for i in range(10_000)}
    assert values == set(range(10_000))


@settings(max_examples=200)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 5), st.integers(0, 4), st.integers(0, 4), st.integers(0, 2)
        ).filter(lambda q: q[1] != q[2]),
        max_size=30,
    )
)
def test_density_and_idempotence(quads):
    space = SignatureSpace()
    issued = {}
    for quad in quads:
        env = Envelope(*quad)
        sig = space.signature_for(env)
        if env in issued:
            assert sig == issued[env]
        else:
            # fresh envelopes get the next dense value
            assert sig == len(issued)
            issued[env] = sig
    assert len(space) == len(issued)
    for env, sig in issued.items():
        assert space.envelope_of(sig) == env


def test_char_table_issues_signatures_in_order_of_first_lookup():
    space = SignatureSpace()
    table, entries = space.char_table(), space.entries
    assert [table[ord(ch)] for ch in "xyxz"] == [0, 1, 0, 2]
    assert entries == ["x", "y", "z"]
    # each entry is appended as its signature is issued, so the space's
    # entries name every signature the table has handed out
    table[ord("\xe9")]
    assert entries == ["x", "y", "z", "\xe9"]
    # str.translate looks up each code point, so one pass interns a line
    # and deletes its whitespace, which gets no signature
    space = SignatureSpace()
    table, entries = space.char_table(), space.entries
    assert "b \xe9\tb\u3000\U0001f600\x1f".translate(table) == "\x00\x01\x00\x02"
    assert entries == ["b", "\xe9", "\U0001f600"]
    assert table[ord(" ")] is None and table[0x3000] is None
    assert list(table.column("\U0001f600 b\xa0")) == [2, 0]


def test_char_table_keeps_a_spaces_characters():
    # a table over a space that holds characters reads them as the space's
    # signatures and issues new ones only to new characters; a whitespace
    # entry is still deleted, and an entry of two characters is no character
    space = SignatureSpace(["a", "b", " ", "cd"])
    assert list(space.char_table().column("ab a\tc")) == [0, 1, 0, 4]
    assert space.entries == ["a", "b", " ", "cd", "c"]
    assert list(space.char_table().column("cab")) == [4, 0, 1]
    assert space.entries == ["a", "b", " ", "cd", "c"]


def test_a_table_and_intern_character_give_a_character_one_signature():
    # a table once appended to the entries behind the space's index, so
    # intern_character gave 'a' a second signature, 2, and ranks 0 and 1
    # over the two were Illegal ("occurs in 1 sequence")
    space = SignatureSpace()
    space.intern_character("x")
    assert list(space.char_table().column("a")) == [1]
    assert space.intern_character("a") == 1
    assert space.entries == ["x", "a"]
    sequences = [Sequence(0, column=[0, 1]), Sequence(1, column=[0, space.intern_character("a")])]
    assert check(Model(sequences, Mode.ABSTRACT, space)) == NoDeadlock()


def test_two_tables_on_one_space_give_a_character_one_signature():
    space = SignatureSpace()
    first, second = space.char_table(), space.char_table()
    assert list(first.column("a")) == [0]
    assert list(second.column("a")) == [0]
    assert space.entries == ["a"]


def test_a_table_reads_what_intern_character_added_after_it_was_made():
    space = SignatureSpace()
    table = space.char_table()
    sig = space.intern_character("a")
    assert list(table.column("a")) == [sig]
    assert space.entries == ["a"]


def test_intern_character_on_a_parsed_space_returns_the_parsed_signatures():
    model = parse_abstract("P0: ab c\nP1: ba\nP2: c")
    space = model.space
    assert space._index is None  # the parse's index lived only during the parse, as a DSL parse's
    assert [space.intern_character(ch) for ch in "abc"] == [0, 1, 2]
    assert space.entries == ["a", "b", "c"]


def test_char_table_deletes_what_str_split_splits_at():
    spaces = [chr(c) for c in range(0x110000) if chr(c).isspace()]
    assert len(spaces) == 29
    text = "a".join(spaces) + "a"
    space = SignatureSpace()
    table, entries = space.char_table(), space.entries
    assert text.translate(table) == "".join(text.split()).translate({ord("a"): 0})
    assert entries == ["a"]


@pytest.mark.parametrize(
    "entries, message",
    [
        # a strict model once read these as envelopes: IndexError, or a self-message let through
        ([(1, 0)], "signature space entry 0, (1, 0): Expected 4 arguments, got 2"),
        ([(1, 0, 0, 0)], "signature space entry 0, (1, 0, 0, 0): self-message: source == destination == 0"),
        ([Envelope(1, 0, 1), (2, 0, -1, 0)], "signature space entry 1, (2, 0, -1, 0): envelope destination must be"),
        ([(1, 0, 1, True)], "signature space entry 0, (1, 0, 1, True): envelope communicator must be"),
        ([5], "signature space entry 0, 5: expected an Envelope, got int 5"),
        ([[1, 0, 1, 0]], "signature space entry 0, [1, 0, 1, 0]: expected an Envelope, got list [1, 0, 1, 0]"),
        (["a", (1, 0, 1, 0)], "signature space entry 0, 'a': expected an Envelope, got str 'a'"),
        ([(1, 0, 1, 0), "a"], "signature space entry 1, 'a': expected an Envelope, got str 'a'"),
    ],
    ids=["pair", "self-message", "negative", "bool", "int", "list", "character-then-envelope", "envelope-then-character"],
)
def test_a_malformed_caller_space_is_refused_at_construction(entries, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SignatureSpace(entries)


def test_a_strict_model_over_characters_is_refused():
    space = SignatureSpace(["ab"])  # a string is a character entry, as an abstract model's
    with pytest.raises(ValueError, match="a strict model needs a signature space of envelopes, got 'ab'"):
        Model([Sequence(0, column=[0]), Sequence(1, column=[0])], Mode.STRICT, space)
    assert Model([Sequence(0, column=[0]), Sequence(1, column=[0])], Mode.ABSTRACT, space).space is space


def test_valid_caller_spaces_are_adopted_duplicates_included():
    for entries in ([], ["a", "a"], [Envelope(1, 0, 1), (1, 0, 1, 0)], [(2, 3, 4, 5)]):
        assert SignatureSpace(entries).entries == entries


def _out_of_space_model(space):
    """Strict bare columns of signature 1 at ranks 2 and 3: illegal over a one-entry space."""
    return Model([Sequence(2, column=[1]), Sequence(3, column=[1])], Mode.STRICT, space)


def test_a_space_of_envelopes_refuses_a_character():
    space = SignatureSpace()
    space.signature_for(Envelope(1, 0, 1))
    with pytest.raises(ValueError, match=re.escape("character 'ab' in a space of envelopes")):
        space.intern_character("ab")
    assert space.entries == [Envelope(1, 0, 1)]
    assert isinstance(check(_out_of_space_model(space)), Illegal)  # was IndexError: string index


def test_a_space_of_characters_refuses_an_envelope():
    # an Engine once judged such an envelope as abstract, so ranks 5 and 7,
    # off its endpoints 0 and 1, drained to NoDeadlock
    space = SignatureSpace(["a"])
    with pytest.raises(ValueError, match=re.escape("envelope Envelope(tag=1, source=0, destination=1, communicator=0) in a space of characters")):
        space.signature_for(Envelope(1, 0, 1))
    assert space.entries == ["a"]


def test_a_character_table_over_envelopes_refuses_a_character():
    space = SignatureSpace([Envelope(1, 0, 1)])
    table = space.char_table()
    with pytest.raises(ValueError, match=re.escape("character 'a' in a space of envelopes")):
        table.column("ab")
    assert space.entries == [Envelope(1, 0, 1)]
    assert table.column(" \t") == array("i")  # whitespace is still deleted


@pytest.mark.parametrize("first", ["table", "envelope"])
def test_an_empty_space_takes_the_kind_of_its_first_entry(first):
    space = SignatureSpace()
    table = space.char_table()
    if first == "table":
        assert list(table.column("ab")) == [0, 1]
        with pytest.raises(ValueError, match="in a space of characters"):
            space.signature_for(Envelope(1, 0, 1))
        assert space.entries == ["a", "b"]
    else:
        assert space.signature_for(Envelope(1, 0, 1)) == 0
        with pytest.raises(ValueError, match=re.escape("character 'c' in a space of envelopes")):
            table.column("c")
        assert space.entries == [Envelope(1, 0, 1)]


def test_a_model_needs_a_space_of_its_modes_kind():
    columns = [Sequence(0, column=[0]), Sequence(1, column=[0])]
    with pytest.raises(ValueError, match=re.escape("an abstract model needs a signature space of characters, got Envelope(")):
        Model(columns, Mode.ABSTRACT, SignatureSpace([Envelope(1, 0, 1)]))
    for mode in Mode:  # an empty space fits either mode
        assert isinstance(check(Model(columns, mode, SignatureSpace())), Illegal)  # signature 0 is outside it


def test_a_space_keeps_its_own_copy_of_a_callers_entries():
    entries = [Envelope(1, 0, 1)]
    space = SignatureSpace(entries)
    entries.append((1, 0))
    assert space.entries == [Envelope(1, 0, 1)]
    assert isinstance(check(_out_of_space_model(space)), Illegal)  # was IndexError: tuple index
    # a tuple of entries is copied to a list, which interning extends
    assert SignatureSpace((Envelope(1, 0, 1),)).signature_for(Envelope(2, 0, 1)) == 1
