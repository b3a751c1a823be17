import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import PAPER_DSL, abstract_model, classify, model_from_tuples, random_legal_abstract
from syncheck import (
    Deadlock,
    Engine,
    EngineError,
    Envelope,
    Illegal,
    MessageOccurrence,
    Mode,
    Model,
    NoDeadlock,
    Role,
    Sequence,
    check,
    check_with_engine,
    parse_dsl,
)
from syncheck.engine import StepOutcome


def occ(space, ch):
    return MessageOccurrence(space.intern_character(ch))


class TestBatchFixtures:
    def test_paper_example_deadlocks(self):
        verdict = check(abstract_model("ab", "bc", "ca"))
        assert isinstance(verdict, Deadlock)
        report = verdict.report
        assert [(b.rank, b.position) for b in report.blocked] == [(0, 0), (1, 0), (2, 0)]
        assert report.matched_pairs == 0
        assert report.residual == 6

    def test_paper_example_dsl_deadlocks(self):
        verdict = check(parse_dsl(PAPER_DSL))
        assert isinstance(verdict, Deadlock)
        assert [(b.rank, b.position) for b in verdict.report.blocked] == [(0, 0), (1, 0), (2, 0)]

    def test_single_rendezvous(self):
        assert isinstance(check(abstract_model("a", "a")), NoDeadlock)

    def test_three_way_signature_is_illegal(self):
        verdict = check(abstract_model("a", "a", "a"))
        assert isinstance(verdict, Illegal)
        assert verdict.reason.ranks == (0, 1, 2)

    def test_matching_order_no_deadlock(self):
        assert isinstance(check(abstract_model("ab", "ab")), NoDeadlock)

    def test_head_inversion_deadlocks(self):
        verdict = check(abstract_model("ab", "ba"))
        assert [(b.rank, b.position) for b in verdict.report.blocked] == [(0, 0), (1, 0)]

    def test_odd_occurrence_count_leaves_residue(self):
        verdict = check(abstract_model("aa", "a"))
        report = verdict.report
        assert [(b.rank, b.position) for b in report.blocked] == [(0, 1)]
        assert report.matched_pairs == 1
        assert report.residual == 1

    def test_empty_model_is_ok(self):
        assert isinstance(check(model_from_tuples([])), NoDeadlock)

    def test_open_sequence_rejected_in_batch(self):
        model = abstract_model("a", "a")
        model.sequences[0].closed = False
        with pytest.raises(EngineError, match="closed"):
            check(model)


class TestStepSemantics:
    def test_paper_example_registers_three_pendings(self):
        engine = Engine(Mode.ABSTRACT)
        engine.load(abstract_model("ab", "bc", "ca"))
        for _ in range(3):
            assert engine.step() is StepOutcome.PROGRESSED
        assert engine.step() is StepOutcome.QUEUE_EMPTY
        assert engine.matched_pairs == 0
        assert engine.steps == 3

    def test_two_steps_complete_a_rendezvous(self):
        engine = Engine(Mode.ABSTRACT)
        engine.load(abstract_model("a", "a"))
        assert engine.step() is StepOutcome.PROGRESSED
        assert engine.step() is StepOutcome.PROGRESSED
        assert engine.cursor(0) == 1 and engine.cursor(1) == 1
        assert engine.step() is StepOutcome.QUEUE_EMPTY

    def test_third_registration_halts_illegal(self):
        engine = Engine(Mode.ABSTRACT)
        engine.load(abstract_model("a", "a", "a"))
        outcomes = [engine.step(), engine.step(), engine.step()]
        assert isinstance(outcomes[-1], Illegal)
        with pytest.raises(EngineError):
            engine.step()

    def test_step_by_step_equals_drain(self):
        for strings in [("ab", "bc", "ca"), ("ab", "ab"), ("aa", "a"), ("a", "a", "a")]:
            stepped = Engine(Mode.ABSTRACT)
            stepped.load(abstract_model(*strings))
            while True:
                outcome = stepped.step()
                if outcome is StepOutcome.QUEUE_EMPTY or not isinstance(outcome, StepOutcome):
                    break
            drained = check(abstract_model(*strings))
            final = stepped.drain() if not stepped.finished else stepped.verdict
            # batch check reports rule-2 violations via static validation, so
            # illegal verdicts agree in class but word the reason differently
            assert classify(final) == classify(drained)
            if not isinstance(drained, Illegal):
                assert final == drained

    def test_matchers_hold_at_most_one_pending(self):
        engine = Engine(Mode.ABSTRACT)
        engine.load(abstract_model("abc", "abc", "", ""))
        while engine.step() is StepOutcome.PROGRESSED:
            pendings = [m[1] for m in engine._table.values() if m[1] is not None]
            assert len(pendings) <= len(engine._table)
            for matcher in engine._table.values():
                assert len(matcher[0]) <= 2


class TestStreaming:
    def test_batch_equals_streamed_paper_example(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("ab").space  # any space; characters intern on demand
        for rank, chars in enumerate(["ab", "bc", "ca"]):
            for ch in chars:
                engine.append(rank, [occ(space, ch)])
                assert engine.drain() is None
        for rank in range(3):
            engine.close(rank)
        verdict = engine.drain()
        assert isinstance(verdict, Deadlock)
        assert verdict.report.matched_pairs == 0
        assert verdict.report.residual == 6

    def test_pair_streamed(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        engine.append(1, [occ(space, "a")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_append_to_blocked_sequence_keeps_head(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        assert engine.drain() is None  # pending on a, rank 1 still open implicitly
        engine.append(0, [occ(space, "b")])
        engine.append(1, [occ(space, "a"), occ(space, "b")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_exhausted_idle_sequence_requeued_on_append(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        engine.append(1, [occ(space, "a")])
        assert engine.drain() is None
        # both exhausted and idle now; new tail must be examined again
        engine.append(0, [occ(space, "b")])
        engine.append(1, [occ(space, "b")])
        engine.close(0)
        engine.close(1)
        verdict = engine.drain()
        assert isinstance(verdict, NoDeadlock)
        assert engine.matched_pairs == 2

    def test_append_after_close_fails(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        engine.close(0)
        with pytest.raises(EngineError, match="closed"):
            engine.append(0, [occ(space, "b")])

    def test_double_close_fails(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        engine.close(0)
        with pytest.raises(EngineError, match="already closed"):
            engine.close(0)

    def test_close_unknown_rank_fails(self):
        engine = Engine(Mode.ABSTRACT)
        with pytest.raises(EngineError, match="unknown"):
            engine.close(3)

    def test_append_after_finalization_fails(self):
        engine = Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        engine.append(0, [occ(space, "a")])
        engine.append(1, [occ(space, "a")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)
        with pytest.raises(EngineError):
            engine.append(0, [occ(space, "b")])

    def test_loaded_open_sequence_defers_verdict_until_closed(self):
        space = abstract_model("").space
        a = occ(space, "a")
        model = Model([Sequence(0, [a]), Sequence(1, [a], closed=False)], Mode.ABSTRACT, space)
        engine = Engine(Mode.ABSTRACT)
        engine.load(model)
        assert engine.drain() is None
        assert engine.matched_pairs == 1
        assert engine.drain() is None
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_load_twice_fails(self):
        engine = Engine(Mode.ABSTRACT)
        engine.load(abstract_model("a", "a"))
        with pytest.raises(EngineError, match="already loaded"):
            engine.load(abstract_model("b", "b"))

    def test_strict_engine_rejects_bare_occurrences(self):
        engine = Engine(Mode.STRICT)
        with pytest.raises(EngineError, match="envelope"):
            engine.append(0, [MessageOccurrence(0)])

    def test_strict_role_mismatch_halts_illegal(self):
        engine = Engine(Mode.STRICT)
        env = Envelope(tag=1, source=0, destination=1)
        engine.append(1, [MessageOccurrence(0, Role.SEND, env)])  # rank 1 is not the source
        engine.close(1)
        verdict = engine.drain()
        assert isinstance(verdict, Illegal)

    def test_engines_are_independent(self):
        a, b = Engine(Mode.ABSTRACT), Engine(Mode.ABSTRACT)
        space = abstract_model("").space
        a.append(0, [occ(space, "a")])
        b.append(0, [occ(space, "a")])
        a.append(1, [occ(space, "a")])
        assert a.drain() is None and b.drain() is None
        assert a.matched_pairs == 1 and b.matched_pairs == 0
        assert a._table is not b._table


class TestInvariants:
    def test_linearity_bound(self):
        for strings in [("ab", "bc", "ca"), ("ab", "ab"), ("aa", "a"), ("abc", "abc")]:
            model = abstract_model(*strings)
            _, engine = check_with_engine(model)
            assert engine.steps <= model.message_count + len(model.sequences)

    def test_conservation_at_verdict(self):
        rng = random.Random(11)
        for _ in range(100):
            model = random_legal_abstract(rng)
            verdict, engine = check_with_engine(model)
            if isinstance(verdict, Deadlock):
                rep = verdict.report
                assert 2 * rep.matched_pairs + rep.residual == rep.message_count
                for entry in rep.blocked:
                    assert entry.position == engine.cursor(entry.rank)
            else:
                assert 2 * engine.matched_pairs == model.message_count

    def test_table_size_bounded_by_distinct_signatures(self):
        rng = random.Random(23)
        for _ in range(50):
            model = random_legal_abstract(rng)
            _, engine = check_with_engine(model)
            assert engine.table_size <= len(model.space)
            assert len(model.space) <= max(model.message_count, 1)

    def test_order_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            model = random_legal_abstract(rng)
            base = check(model)
            base_pairs = check_with_engine(model)[1].matched_pairs
            ranks = [s.rank for s in model.sequences if s.occurrences]
            for _ in range(5):
                order = ranks[:]
                rng.shuffle(order)
                verdict, engine = check_with_engine(model, order=order)
                assert classify(verdict) == classify(base)
                assert engine.matched_pairs == base_pairs

    def test_bad_order_rejected(self):
        model = abstract_model("a", "a")
        with pytest.raises(EngineError, match="permutation"):
            check(model, order=[0])

    def test_batch_stream_equivalence_randomized(self):
        rng = random.Random(77)
        for _ in range(60):
            model = random_legal_abstract(rng)
            batch = check(model)

            engine = Engine(Mode.ABSTRACT)
            pending = {
                s.rank: list(s.occurrences) for s in model.sequences
            }
            open_ranks = set(pending)
            for rank in open_ranks:
                engine.append(rank, [])  # an empty append registers the sequence
            while open_ranks:
                rank = rng.choice(sorted(open_ranks))
                items = pending[rank]
                if items:
                    take = rng.randint(1, len(items))
                    engine.append(rank, items[:take])
                    del items[:take]
                    engine.drain()
                else:
                    engine.close(rank)
                    open_ranks.discard(rank)
                    engine.drain()
            streamed = engine.drain()
            assert classify(streamed) == classify(batch)
            if isinstance(batch, Deadlock):
                assert streamed.report == batch.report


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.text(alphabet="abc", min_size=0, max_size=4), min_size=0, max_size=3
    )
)
def test_engine_never_crashes_and_conserves(strings):
    model = abstract_model(*strings)
    verdict, engine = check_with_engine(model)
    if isinstance(verdict, Deadlock):
        rep = verdict.report
        assert 2 * rep.matched_pairs + rep.residual == model.message_count
        assert rep.blocked  # a deadlock names at least one blocked head
    elif isinstance(verdict, NoDeadlock):
        assert 2 * engine.matched_pairs == model.message_count
