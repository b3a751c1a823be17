import random

import pytest

from support import PAPER_DSL, abstract_model
from syncheck import (
    Envelope,
    MessageOccurrence,
    Mode,
    Model,
    Role,
    Sequence,
    SignatureSpace,
    check,
    parse_dsl,
    validate_static,
)
from syncheck.model import check_envelope


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


def test_duplicate_ranks_rejected_at_model_construction():
    with pytest.raises(ValueError, match="duplicate"):
        Model(
            sequences=[Sequence(rank=0, occurrences=[]), Sequence(rank=0, occurrences=[])],
            mode=Mode.ABSTRACT,
            space=SignatureSpace(),
        )


def _abstracted(model: Model) -> Model:
    """The model with roles and envelopes dropped, keeping signatures."""
    seqs = [
        Sequence(s.rank, [MessageOccurrence(sig) for sig in s.signatures])
        for s in model.sequences
    ]
    return Model(sequences=seqs, mode=Mode.ABSTRACT, space=model.space)


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
