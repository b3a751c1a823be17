import random
from array import array

import pytest

from support import PAPER_DSL, OrderedLegality, abstract_model, char_space, interleaving, random_rows
from syncheck import (
    Envelope,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    Role,
    Sequence,
    SignatureSpace,
    check,
    parse_abstract,
    parse_dsl,
    validate_static,
)
from syncheck import model as model_mod
from syncheck.model import _TRACKED_MIN, Legality, _tracked_distinct, check_envelope


class TestEnvelope:
    def test_self_message_rejected(self):
        with pytest.raises(ValueError, match="self-message"):
            check_envelope(Envelope(tag=1, source=3, destination=3))

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            check_envelope(Envelope(tag=-1, source=0, destination=1))

    def test_non_integer_rejected(self):
        with pytest.raises(ValueError):
            check_envelope(Envelope(tag=1.5, source=0, destination=1))

    def test_communicator_defaults_to_zero(self):
        assert Envelope(tag=1, source=0, destination=1).communicator == 0


class TestValidateStatic:
    def test_paper_model_is_legal(self):
        assert validate_static(abstract_model("ab", "bc", "ca")) is None

    def test_signature_in_three_sequences_is_illegal(self):
        reason = validate_static(abstract_model("a", "a", "a"))
        assert reason is not None
        assert reason.ranks == (0, 1, 2)

    def test_empty_model_is_legal(self):
        assert validate_static(Model(sequences=[], mode=Mode.ABSTRACT, space=SignatureSpace())) is None

    def test_occurrence_imbalance_is_legal_here(self):
        # resolves to a deadlock at run time, not a static violation
        assert validate_static(abstract_model("aa", "a")) is None

    def test_signature_in_one_sequence_is_illegal(self):
        reason = validate_static(abstract_model("ab", "b"))
        assert reason is not None
        assert reason.ranks == (0,)

    def test_independent_of_sequence_order(self):
        base = abstract_model("ab", "bc", "ca", "ddd")
        rng = random.Random(7)
        expected = validate_static(base)
        for _ in range(10):
            seqs = list(base.sequences)
            rng.shuffle(seqs)
            shuffled = Model(sequences=seqs, mode=base.mode, space=base.space)
            got = validate_static(shuffled)
            assert (got is None) == (expected is None)

    def test_strict_role_on_wrong_side_is_illegal(self):
        space = SignatureSpace()
        env = Envelope(tag=1, source=0, destination=1)
        sig = space.signature_for(env)
        seqs = [
            Sequence(rank=0, occurrences=[MessageOccurrence(sig, Role.RECV, env)]),
            Sequence(rank=1, occurrences=[MessageOccurrence(sig, Role.SEND, env)]),
        ]
        reason = validate_static(Model(sequences=seqs, mode=Mode.STRICT, space=space))
        assert reason is not None
        assert "recv at rank 0" in reason.message

    def test_strict_wrong_endpoints_is_illegal(self):
        space = SignatureSpace()
        env = Envelope(tag=1, source=0, destination=1)
        sig = space.signature_for(env)
        seqs = [
            Sequence(rank=0, occurrences=[MessageOccurrence(sig, Role.SEND, env)]),
            Sequence(rank=5, occurrences=[MessageOccurrence(sig, Role.UNSPECIFIED, env)]),
        ]
        reason = validate_static(Model(sequences=seqs, mode=Mode.STRICT, space=space))
        assert reason is not None
        assert "endpoints" in reason.message

    def test_strict_occurrence_without_envelope_is_illegal(self):
        space = SignatureSpace()
        seqs = [Sequence(rank=0, occurrences=[MessageOccurrence(0)])]
        reason = validate_static(Model(sequences=seqs, mode=Mode.STRICT, space=space))
        assert reason is not None
        assert "no envelope" in reason.message


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"occurrences": [MessageOccurrence(1)], "column": [0]}, {"occurrences": [], "column": []}],
    ids=["neither", "both", "both-empty"],
)
def test_sequence_takes_exactly_one_of_occurrences_and_column(kwargs):
    with pytest.raises(ValueError, match="Sequence 0 takes exactly one of occurrences and column"):
        Sequence(0, **kwargs)


def test_a_built_models_occurrences_cannot_change():
    # a list was kept: a second occurrence appended to rank 0's left its
    # column, and so `len` and `check`, as they were
    space = SignatureSpace()
    env = Envelope(tag=1, source=0, destination=1)
    sig = space.signature_for(env)
    occurrences = [MessageOccurrence(sig, Role.SEND, env)]
    model = Model(
        [Sequence(0, occurrences), Sequence(1, [MessageOccurrence(sig, Role.RECV, env)])], Mode.STRICT, space
    )
    occurrences.append(MessageOccurrence(sig, Role.SEND, env))  # the caller's list is not the model's
    assert model.sequences[0].occurrences == (MessageOccurrence(sig, Role.SEND, env),)
    with pytest.raises(AttributeError):
        model.sequences[0].occurrences.append(MessageOccurrence(sig, Role.SEND, env))
    assert len(model.sequences[0]) == 1
    assert check(model) == NoDeadlock()


def test_duplicate_ranks_rejected_at_model_construction():
    with pytest.raises(ValueError, match="duplicate"):
        Model(
            sequences=[Sequence(rank=0, occurrences=[]), Sequence(rank=0, occurrences=[])],
            mode=Mode.ABSTRACT,
            space=SignatureSpace(),
        )


def _abstracted(model: Model) -> Model:
    """The model with roles and envelopes dropped, keeping signatures, over
    a space of characters as large as the model's, since an abstract model
    needs one."""
    seqs = [
        Sequence(s.rank, [MessageOccurrence(sig) for sig in s.column])
        for s in model.sequences
    ]
    return Model(sequences=seqs, mode=Mode.ABSTRACT, space=SignatureSpace(map(chr, range(len(model.space)))))


def test_abstracting_a_dsl_model_keeps_the_verdict():
    strict = parse_dsl(PAPER_DSL)
    loose = _abstracted(strict)
    assert loose.mode is Mode.ABSTRACT
    assert all(o.envelope is None for s in loose.sequences for o in s.occurrences)
    assert type(check(loose)) is type(check(strict))


def test_report_conservation_is_enforced():
    from syncheck import DeadlockReport

    with pytest.raises(AssertionError):
        DeadlockReport(blocked=(), matched_pairs=1, residual=1, message_count=4)


def _random_strict_model(rng):
    """An API-built strict model whose members sit mostly, not always, at
    their envelope's endpoints, in two sequences mostly, not always."""
    procs = rng.randint(2, 6)
    space = SignatureSpace()
    rows = [[] for _ in range(procs)]
    for tag in range(rng.randint(1, 30)):
        src, dst = rng.sample(range(procs), 2)
        env = Envelope(tag, src, dst)
        occ = MessageOccurrence(space.signature_for(env), Role.UNSPECIFIED, env)
        members = [src, dst]
        if rng.random() < 0.1:
            members[rng.randrange(2)] = rng.randrange(procs)  # off the endpoints, or lonely
        if rng.random() < 0.1:
            members.append(rng.randrange(procs))  # maybe a third member
        for rank in members:
            rows[rank].extend([occ] * rng.randint(1, 3))
    for row in rows:
        rng.shuffle(row)
    return Model([Sequence(rank, row) for rank, row in enumerate(rows)], Mode.STRICT, space)


def _as_tuple(reason):
    return None if reason is None else (reason.signature, reason.ranks, reason.message)


def _ordered_reason(model):
    """The first violation of complete `model` that `OrderedLegality` names,
    its members held to each signature's entry in the model's space."""
    reference = OrderedLegality(model.space, model.mode is Mode.STRICT)
    for seq in model.sequences:
        reference.add(seq.rank, list(seq.column))
    return reference.finish()


def test_legality_names_the_violation_an_ordered_pass_names():
    # random chunkings of abstract models (a third member, a lonely
    # signature, or both, in two of three), and strict API-built models
    # whose members may be off their envelope's endpoints, whole
    rng = random.Random(14)
    violations = 0
    for trial in range(3000):
        if trial % 2:  # unspecified roles, each envelope its signature's entry
            model = _random_strict_model(rng)
            reference = _ordered_reason(model)
            assert _as_tuple(validate_static(model)) == reference
            violations += reference is not None
            # streamed in random chunks into a space that grows as it
            # interns them, as `stream` does
            rows, entries, space = [list(seq.column) for seq in model.sequences], model.space.entries, SignatureSpace()
            legality, streamed = Legality(space), OrderedLegality(space, strict=True)
            for rank, start, end in interleaving(rng, rows):
                if start is not None:
                    chunk = [space.signature_for(Envelope(*entries[sig])) for sig in rows[rank][start:end]]
                    legality.add(rank, chunk)
                    streamed.add(rank, chunk)
                    assert _as_tuple(legality.violation) == streamed.violation
            assert _as_tuple(legality.finish()) == streamed.finish()
            assert (streamed.violation is None) == (reference is None)
            continue
        rows = random_rows(rng)
        model = parse_abstract("".join(f"P{rank}: {''.join(row)}\n" for rank, row in enumerate(rows)))
        rows = [list(seq.column) for seq in model.sequences]  # ranks 0, 1, ...
        legality, reference = Legality(model.space), OrderedLegality(model.space)
        for rank, start, end in interleaving(rng, rows):
            if start is not None:  # not a close
                legality.add(rank, rows[rank][start:end])
                reference.add(rank, rows[rank][start:end])
                assert _as_tuple(legality.violation) == reference.violation
        assert _as_tuple(legality.finish()) == reference.finish()
        violations += reference.violation is not None
    assert 1000 < violations < 2500
    # long complete columns whose distinct signatures one C pass finds
    for model in _long_ascii_models():
        assert all(_tracked_distinct(seq.column) is not None for seq in model.sequences)
        reason = _ordered_reason(model)
        assert reason is not None
        assert _as_tuple(validate_static(model)) == reason


def _long_ascii_models():
    """Illegal models whose columns hold 10^5 occurrences of signatures below
    128: third members late in a line (b, signature 1, comes first in order
    and a, signature 0, first in a set), a lone signature, and an API-built
    strict model whose third rank is off a signature's endpoints."""
    line = "ab" * 50_000
    yield abstract_model(line, line, "c" * 99_998 + "ba", "c" * 100_000)
    yield abstract_model(line, line, "c" * 99_999 + "d", "c" * 100_000)
    space = SignatureSpace()
    x, y = Envelope(0, 0, 1), Envelope(1, 0, 1)
    ox = MessageOccurrence(space.signature_for(x), Role.UNSPECIFIED, x)
    oy = MessageOccurrence(space.signature_for(y), Role.UNSPECIFIED, y)
    rows = [[ox] * 99_999 + [oy], [ox] * 100_000, [oy] * 100_000]
    yield Model([Sequence(rank, row) for rank, row in enumerate(rows)], Mode.STRICT, space)


@pytest.mark.parametrize(
    "column",
    [
        [],
        [5, 3] * (_TRACKED_MIN // 2) + [127, 0],
        list(range(128)) * 16,
        [1, 2] * (_TRACKED_MIN // 2) + [128],
        [1, 2] * (_TRACKED_MIN // 2) + [-7],
        [1, 2] * (_TRACKED_MIN // 2) + [2**31 - 1],
        [1, 2] * (_TRACKED_MIN // 2) + list(range(0xD800, 0xE000)),
        [1, 2] * (_TRACKED_MIN // 2 - 1) + [3],
    ],
    ids=["empty", "ascii", "all-128", "ends-128", "ends-negative", "ends-int-max", "surrogates", "short"],
)
def test_legality_sees_the_distinct_signatures_of_a_column(column):
    column = array("i", column)
    tracked = _tracked_distinct(column)
    takes_translate = len(column) >= _TRACKED_MIN and all(0 <= sig < 128 for sig in column)
    assert (tracked is not None) == takes_translate
    if tracked is not None:
        assert list(tracked) == list(dict.fromkeys(column))  # in order of first appearance
    space = char_space(0xE000)  # every signature here but -7 and 2**31 - 1

    def legality_of(*ranks):
        legality = Legality(space)
        for rank in ranks:
            legality.add(rank, column)
        return legality

    outside = [sig for sig in column if not 0 <= sig < len(space)]
    if outside:  # met where it occurs
        message = f"signature {outside[0]} at rank 0 is outside the signature space, range({len(space)})"
        assert _as_tuple(legality_of(0).violation) == (None, (0,), message)
        return
    # two ranks make every signature legal; one leaves the lowest lonely,
    # and a third meets the first signature as a third member
    assert legality_of(0, 1).finish() is None
    if column:
        assert _as_tuple(legality_of(0).finish()) == (min(column), (0,), "occurs in 1 sequence, expected exactly 2")
        assert _as_tuple(legality_of(0, 1, 2).violation) == (column[0], (0, 1, 2), "occurs in 3 sequences, expected exactly 2")


@pytest.mark.parametrize("length", [_TRACKED_MIN - 1, _TRACKED_MIN])
def test_tracked_min_decides_the_path_of_an_ascii_column(length, monkeypatch):
    # 101 distinct signatures below 128, first seen out of sorted order
    column = array("i", [37 * i % 101 for i in range(length)])
    paths = []

    def spy(signatures):
        paths.append(_tracked_distinct(signatures))
        return paths[-1]

    monkeypatch.setattr(model_mod, "_tracked_distinct", spy)
    legality = Legality(char_space(101))
    legality.add(0, column)
    legality.add(1, column)
    assert [tracked is not None for tracked in paths] == [length >= _TRACKED_MIN] * 2
    assert legality.finish() is None
    in_order = list(dict.fromkeys(column))
    assert in_order != sorted(in_order)
    # members are met in order of first appearance: with every signature but
    # the first on ranks 0 and 1, a third rank's column names the second
    # (37) as a third member, where sorted order would name 1
    legality = Legality(char_space(101))
    legality.add(0, in_order[1:])
    legality.add(1, in_order[1:])
    legality.add(2, column)
    assert [tracked is not None for tracked in paths[2:]] == [False, False, length >= _TRACKED_MIN]
    assert _as_tuple(legality.violation) == (in_order[1], (0, 1, 2), "occurs in 3 sequences, expected exactly 2")
    # either path finds the same distinct signatures in the same order
    monkeypatch.setattr(model_mod, "_TRACKED_MIN", 1)
    assert list(_tracked_distinct(column)) == in_order


def test_a_parsed_long_ascii_column_takes_the_translate_path(monkeypatch):
    # and a short one or one past 127 a set: a refactor must not lose either
    results = []

    def spy(signatures):
        results.append((len(signatures), _tracked_distinct(signatures)))
        return results[-1][1]

    monkeypatch.setattr(model_mod, "_tracked_distinct", spy)
    # signatures in order of first appearance: a b 0-1, c d 2-3, the 124
    # characters from U+0100 4-127 (non-ASCII, so the signatures decide), e 128
    long, short = "ab" * 50_000, "cd"
    wide = "".join(map(chr, range(0x100, 0x17C))) * 100
    assert isinstance(check(abstract_model(long, long, short, short, wide, wide, "e" * 10_000, "e" * 10_000)), NoDeadlock)
    assert [(n, None if d is None else list(d)) for n, d in results] == [
        (100_000, [0, 1]), (100_000, [0, 1]), (2, None), (2, None),
        (12_400, list(range(4, 128))), (12_400, list(range(4, 128))), (10_000, None), (10_000, None),
    ]


def test_legality_names_the_first_violation_where_set_order_differs():
    # `ba` on a third rank: b (signature 1) comes first in order, a
    # (signature 0) first in the set
    assert next(iter({1, 0})) == 0
    reason = validate_static(abstract_model("ab", "ab", "ba"))
    assert _as_tuple(reason) == (1, (0, 1, 2), "occurs in 3 sequences, expected exactly 2")
