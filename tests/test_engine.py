import gc
import itertools
import json
import random
import tracemalloc
from array import array
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    PAPER_DSL,
    abstract_model,
    char_space,
    classify,
    halo_model,
    in_order,
    interleaving,
    model_from_tuples,
    random_legal_abstract,
    random_rows,
)
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
    SignatureSpace,
    check,
    check_with_engine,
    cycle_check,
    parse_abstract,
    parse_dsl,
    parse_model,
)
from syncheck import engine as engine_mod
from syncheck import model as model_mod
from syncheck.bench import GenSpec, generate
from syncheck.engine import _common_run
from syncheck.model import _TRACKED_MIN
from syncheck.report import build_report


def sig(space, ch):
    return space.intern_character(ch)


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


def assert_one_pending_per_signature(engine):
    # the table maps a signature to its one pending rank, and that rank is
    # blocked on the signature; until a violation, at most two sequences
    # hold the signature, and a strict signature's pending rank is an
    # endpoint of its entry
    for signature, pending in engine._table.items():
        assert engine._col[pending][engine._cursor[pending]] == signature
        assert pending not in engine._queue
        members = [rank for rank, col in engine._col.items() if signature in col]
        assert len(members) <= 2 or engine._legality.violation is not None
        entry = engine._space.entries[signature]
        assert isinstance(entry, str) or pending in (entry[1], entry[2])


class TestStepSemantics:
    def test_paper_example_registers_three_pendings(self):
        model = abstract_model("ab", "bc", "ca")
        engine = Engine(model.space)
        engine.load(model)
        assert isinstance(engine.drain(), Deadlock)
        assert engine.matched_pairs == 0
        assert engine.steps == 3
        assert sorted(engine._table.values()) == [0, 1, 2]

    def test_two_steps_complete_a_rendezvous(self):
        model = abstract_model("a", "a")
        engine = Engine(model.space)
        engine.load(model)
        assert isinstance(engine.drain(), NoDeadlock)
        assert engine.steps == 2
        assert engine._cursor == {0: 1, 1: 1}

    def test_third_registration_halts_illegal(self):
        # the third member rank is seen at load, so drain halts before a step
        model = abstract_model("a", "a", "a")
        engine = Engine(model.space)
        engine.load(model)
        verdict = engine.drain()
        assert isinstance(verdict, Illegal)
        assert verdict.reason.ranks == (0, 1, 2)
        assert engine.steps == 0
        assert engine.drain() == verdict

    def test_matchers_hold_at_most_one_pending(self):
        # streamed one occurrence at a time, so heads pend between drains
        space = abstract_model("").space
        engine = Engine(space)
        for rank in (2, 3):
            engine.append(rank, [])
        for chars in ("abc", "cba"):
            for ch in chars:
                for rank in (0, 1):
                    engine.append(rank, [sig(space, ch)])
                    assert_one_pending_per_signature(engine)
                    assert engine.drain() is None
                    assert_one_pending_per_signature(engine)
        assert engine.matched_pairs == 6


class TestStreaming:
    def test_batch_equals_streamed_paper_example(self):
        space = abstract_model("ab").space  # any space; characters intern on demand
        engine = Engine(space)
        for rank, chars in enumerate(["ab", "bc", "ca"]):
            for ch in chars:
                engine.append(rank, [sig(space, ch)])
                assert engine.drain() is None
        for rank in range(3):
            engine.close(rank)
        verdict = engine.drain()
        assert isinstance(verdict, Deadlock)
        assert verdict.report.matched_pairs == 0
        assert verdict.report.residual == 6

    def test_pair_streamed(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.append(1, [sig(space, "a")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_append_to_blocked_sequence_keeps_head(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        assert engine.drain() is None  # pending on a, rank 1 still open implicitly
        engine.append(0, [sig(space, "b")])
        engine.append(1, [sig(space, "a"), sig(space, "b")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    @pytest.mark.parametrize(
        "as_chunk",
        [list, lambda c: array("i", c), lambda c: array("l", c), lambda c: array("q", c), lambda c: array("h", c)],
        ids=["list", "array-i", "array-l", "array-q", "array-h"],
    )
    def test_append_reads_a_list_or_an_array_of_any_typecode(self, as_chunk):
        # ab/ba deadlocks after a and b run in lockstep; c lies in one sequence
        rows = {0: [0, 1, 0, 1, 2], 1: [0, 1, 1, 0], 2: [3], 3: [3]}
        engine = Engine(char_space(4))
        for rank, row in rows.items():
            engine.append(rank, as_chunk(row[:2]))
            engine.append(rank, as_chunk(row[2:]))
            assert engine.drain() is None
        for rank in rows:
            engine.close(rank)
        verdict = engine.drain()
        assert [col.typecode for col in engine._col.values()] == ["i"] * 4
        assert {rank: col.tolist() for rank, col in engine._col.items()} == rows
        assert isinstance(verdict, Illegal)
        assert (verdict.reason.signature, verdict.reason.ranks) == (2, (0,))
        assert (engine.steps, engine.matched_pairs, engine.message_count) == (8, 3, 11)

    @pytest.mark.parametrize(
        "rows",
        [{0: [0, 1], 1: [1, 0]}, {0: [0, 1], 1: [0, 1]}, {0: [0], 1: [0], 2: [0]}, {0: [0, 1], 1: [0]}],
        ids=["deadlock", "ok", "third", "lonely"],
    )
    def test_a_generator_chunk_is_judged_as_its_list(self, rows):
        # a one-shot iterator is read once, and Legality judges what the column received
        def run(as_chunk):
            engine = Engine(char_space(2))
            for rank, row in rows.items():
                engine.append(rank, as_chunk(row))
                if engine.drain() is not None:
                    break
            else:
                for rank in rows:
                    engine.close(rank)
            return engine.drain(), {rank: col.tolist() for rank, col in engine._col.items()}

        assert run(lambda row: (sig for sig in row)) == run(iter) == run(list)

    def test_a_long_array_chunk_keeps_the_one_pass_path(self, monkeypatch):
        paths = []
        tracked = model_mod._tracked_distinct

        def spy(signatures):
            paths.append(tracked(signatures))
            return paths[-1]

        monkeypatch.setattr(model_mod, "_tracked_distinct", spy)
        engine = Engine(char_space(2))
        engine.append(0, array("i", [0, 1] * _TRACKED_MIN))
        engine.append(1, [0, 1] * _TRACKED_MIN)
        assert [path is not None for path in paths] == [True, False]
        for rank in (0, 1):
            engine.close(rank)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_loaded_columns_are_4_bytes_wide(self):
        base = model_from_tuples(["ab", "ab", "c", "c"])
        columns = [Sequence(2, column=array("l", [2])), Sequence(3, column=array("i", [2]))]
        model = Model([*base.sequences[:2], *columns], base.mode, base.space)
        assert [seq.column.typecode for seq in model.sequences] == ["i"] * 4  # from construction
        verdict, engine = check_with_engine(model)
        assert isinstance(verdict, NoDeadlock)
        assert [engine._col[seq.rank] is seq.column for seq in model.sequences] == [True] * 4

    def test_exhausted_idle_sequence_requeued_on_append(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.append(1, [sig(space, "a")])
        assert engine.drain() is None
        # both exhausted and idle now; new tail must be examined again
        engine.append(0, [sig(space, "b")])
        engine.append(1, [sig(space, "b")])
        engine.close(0)
        engine.close(1)
        verdict = engine.drain()
        assert isinstance(verdict, NoDeadlock)
        assert engine.matched_pairs == 2

    def test_append_after_close_fails(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.close(0)
        with pytest.raises(EngineError, match="closed"):
            engine.append(0, [sig(space, "b")])

    def test_double_close_fails(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.close(0)
        with pytest.raises(EngineError, match="already closed"):
            engine.close(0)

    def test_close_unknown_rank_fails(self):
        engine = Engine(SignatureSpace())
        with pytest.raises(EngineError, match="unknown"):
            engine.close(3)

    def test_append_after_finalization_fails(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.append(1, [sig(space, "a")])
        engine.close(0)
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)
        with pytest.raises(EngineError):
            engine.append(0, [sig(space, "b")])
        with pytest.raises(EngineError, match="close after finalization"):
            engine.close(0)

    def test_streamed_open_sequence_defers_verdict_until_closed(self):
        space = abstract_model("").space
        engine = Engine(space)
        engine.append(0, [sig(space, "a")])
        engine.append(1, [sig(space, "a")])
        engine.close(0)
        assert engine.drain() is None
        assert engine.matched_pairs == 1
        assert engine.drain() is None
        assert engine.open_ranks() == [1]
        engine.close(1)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_loaded_engine_takes_no_new_rank(self):
        # a loaded model is complete: a new rank would meet a Legality that
        # knows none of the loaded members
        model = abstract_model("a", "a")
        engine = Engine(model.space)
        engine.load(model)
        with pytest.raises(EngineError, match="new rank 2"):
            engine.append(2, [sig(model.space, "a")])
        with pytest.raises(EngineError, match="already closed"):
            engine.close(0)
        assert isinstance(engine.drain(), NoDeadlock)

    def test_load_twice_fails(self):
        model = abstract_model("a", "a")
        engine = Engine(model.space)
        engine.load(model)
        with pytest.raises(EngineError, match="already loaded"):
            engine.load(abstract_model("b", "b"))

    def test_a_built_models_sequences_cannot_be_changed(self):
        # Model rejects duplicate ranks when it is built, and no rank can be
        # added, replaced or renamed later
        model = abstract_model("a", "a")
        with pytest.raises(AttributeError):
            model.sequences.append(Sequence(0, column=array("l", [0])))
        with pytest.raises(TypeError):
            model.sequences[1:] = [Sequence(0, column=[0])]
        with pytest.raises(FrozenInstanceError):
            model.sequences = [Sequence(0, column=[0])]
        with pytest.raises(FrozenInstanceError):
            model.sequences[1].rank = 0
        assert [seq.rank for seq in model.sequences] == [0, 1]
        assert isinstance(check(model), NoDeadlock)

    def test_strict_engine_rejects_bare_occurrences(self):
        # occurrences enter only through load, where a strict one without an
        # envelope is illegal, as in a batch check
        model = Model([Sequence(0, [MessageOccurrence(0)])], Mode.STRICT, SignatureSpace())
        engine = Engine(model.space)
        engine.load(model)
        verdict = engine.drain()
        assert isinstance(verdict, Illegal)
        assert verdict.reason.ranks == (0,)
        assert "no envelope" in verdict.reason.message

    def test_strict_role_mismatch_halts_illegal(self):
        env = Envelope(tag=1, source=0, destination=1)
        space = SignatureSpace()
        engine = Engine(space)
        rows = [Sequence(1, [MessageOccurrence(space.signature_for(env), Role.SEND, env)])]  # rank 1 is not the source
        engine.load(Model(rows, Mode.STRICT, space))
        verdict = engine.drain()
        assert isinstance(verdict, Illegal)
        assert verdict.reason.message == "send at rank 1 pos 0 but envelope source is 0"

    @pytest.mark.parametrize("interned", ["before", "after"])
    def test_a_strict_stream_whose_first_append_is_empty_stays_strict(self, interned):
        # the mode is read at the first occurrence, so rank 2, off the
        # envelope's endpoints, is illegal as `check` finds, whether the
        # envelope was in the space before the empty append or interned after
        env = Envelope(1, 0, 1)
        space = SignatureSpace([env] if interned == "before" else [])
        engine = Engine(space)
        engine.append(0, [])
        x = space.signature_for(env)
        engine.append(0, [x])
        engine.append(2, [x])
        verdict = engine.drain()
        assert verdict == check(Model([Sequence(0, column=[x]), Sequence(2, column=[x])], Mode.STRICT, space))
        assert verdict.reason.message == "occurs in sequences [0, 2] but its envelope endpoints are [0, 1]"

    def test_a_character_table_over_envelopes_refuses_a_character(self):
        # the table once appended 'a' and 'b' to the space of envelopes, and
        # `drain` then read them as envelopes: IndexError: string index
        env = Envelope(1, 0, 1)
        space = SignatureSpace([env])
        table, engine = space.char_table(), Engine(space)
        for rank in (0, 1):
            with pytest.raises(ValueError, match="character 'a' in a space of envelopes"):
                engine.append(rank, table.column("ab"))
            engine.append(rank, [0])
            engine.close(rank)
        assert space.entries == [env]
        assert engine.drain() == NoDeadlock()

    def test_engines_are_independent(self):
        space = abstract_model("").space
        a, b = Engine(space), Engine(space)
        a.append(0, [sig(space, "a")])
        b.append(0, [sig(space, "a")])
        a.append(1, [sig(space, "a")])
        assert a.drain() is None and b.drain() is None
        assert a.matched_pairs == 1 and b.matched_pairs == 0
        assert a._table is not b._table


class TestColumnAdoption:
    """`load` adopts every model sequence's column, which is an `array('i')`
    from the sequence's construction; every streamed array is copied into
    one the engine owns."""

    @pytest.mark.parametrize("text", ["P0: xyzab\nP1: xyzba\n", PAPER_DSL], ids=["abstract", "dsl"])
    def test_a_check_leaves_the_parsed_columns_as_they_were(self, text):
        model = parse_model(text)
        before = [seq.column.tobytes() for seq in model.sequences]
        verdict, engine = check_with_engine(model)
        assert all(engine._col[seq.rank] is seq.column for seq in model.sequences)
        assert [seq.column.tobytes() for seq in model.sequences] == before
        assert isinstance(verdict, Deadlock)
        assert check(model) == verdict

    def test_a_streamed_array_is_copied(self):
        # ab / ba deadlocks at both heads; rewritten to ba / ba, it would complete
        chunk = array("i", [0, 1])
        engine = Engine(char_space(2))
        engine.append(0, chunk)
        engine.append(1, array("i", [1, 0]))
        chunk[0], chunk[1] = 1, 0
        engine.close(0)
        engine.close(1)
        verdict = engine.drain()
        assert engine._col[0] is not chunk
        assert isinstance(verdict, Deadlock)
        assert [(b.rank, b.position, b.signature) for b in verdict.report.blocked] == [(0, 0, 0), (1, 0, 1)]

    def test_list_columns_and_other_typecodes_are_converted(self):
        # converted when the sequence is built, so load adopts every column,
        # the one made from occurrences too
        base = model_from_tuples(["ab", "ab", "c", "c"])
        given = array("i", [2])
        model = Model(
            [base.sequences[0], Sequence(1, column=[0, 1]), Sequence(2, column=array("l", [2])), Sequence(3, column=given)],
            base.mode,
            base.space,
        )
        assert [seq.column.typecode for seq in model.sequences] == ["i"] * 4
        assert model.sequences[3].column is given
        verdict, engine = check_with_engine(model)
        assert isinstance(verdict, NoDeadlock)
        assert [engine._col[seq.rank] is seq.column for seq in model.sequences] == [True] * 4
        assert [col.tolist() for col in engine._col.values()] == [[0, 1], [0, 1], [2], [2]]


def test_check_of_a_parsed_abstract_model_peaks_below_1_5_bytes_per_occurrence():
    # the parsed columns are adopted; copying them alone took 4 B per
    # occurrence.  What is left is mostly the forced runs' slice compares.
    rows = [(a + b) * 12_500 for a, b in ("ab", "cd", "ef", "gh") for _ in range(2)]
    model = parse_abstract("".join(f"P{rank}: {row}\n" for rank, row in enumerate(rows)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict, _ = check_with_engine(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert isinstance(verdict, NoDeadlock)
    assert model.message_count == 200_000
    assert peak / model.message_count < 1.5


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
                    assert entry.position == engine._cursor[entry.rank]
            else:
                assert 2 * engine.matched_pairs == model.message_count

    def test_table_size_bounded_by_sequence_count(self):
        rng = random.Random(23)
        for _ in range(50):
            model = random_legal_abstract(rng)
            _, engine = check_with_engine(model)
            assert engine.table_size <= len(model.sequences)
            assert len(model.space) <= max(model.message_count, 1)

    def test_order_invariance(self):
        rng = random.Random(5)
        for _ in range(50):
            model = random_legal_abstract(rng)
            base = check(model)
            base_pairs = check_with_engine(model)[1].matched_pairs
            ranks = [s.rank for s in model.sequences]
            for _ in range(5):
                order = ranks[:]
                rng.shuffle(order)
                verdict, engine = check_with_engine(in_order(model, order))
                assert classify(verdict) == classify(base)
                assert engine.matched_pairs == base_pairs

    def test_queue_holds_distinct_ready_unpending_ranks(self):
        # random models, most illegal, loaded or streamed in random chunks,
        # with none, one or two drain() calls between events
        def assert_queue_ok(engine):
            assert_one_pending_per_signature(engine)
            queue = list(engine._queue)
            assert len(set(queue)) == len(queue)
            pending = set(engine._table.values())
            for rank in queue:
                assert engine._cursor[rank] < len(engine._col[rank])
                assert rank not in pending
            # each matched pair took two head examinations, each pending rank one,
            # whether the pair was matched alone or in a forced run
            assert engine.steps == 2 * engine.matched_pairs + len(pending)
            # every rank with a head left is queued or pending, never both
            headed = {r for r, col in engine._col.items() if engine._cursor[r] < len(col)}
            assert headed == set(queue) | pending

        def drain_sometimes(engine, rng):
            verdict = None
            for _ in range(rng.randint(0, 2)):
                verdict = engine.drain()
                assert_queue_ok(engine)
            return verdict

        rng = random.Random(4)
        for _ in range(300):
            rows = random_rows(rng)
            model = model_from_tuples(rows)
            engine = Engine(model.space)
            assert_queue_ok(engine)
            if rng.random() < 0.25:
                order = [s.rank for s in model.sequences]
                rng.shuffle(order)
                engine.load(in_order(model, order))
                assert_queue_ok(engine)
                assert engine.drain() is not None
                assert_queue_ok(engine)
                continue
            for rank, start, end in interleaving(rng, rows):
                if start is None:
                    engine.close(rank)
                else:
                    engine.append(rank, model.sequences[rank].column[start:end])
                assert_queue_ok(engine)
                if drain_sometimes(engine, rng) is not None:
                    break

    def test_batch_stream_equivalence_randomized(self):
        rng = random.Random(77)
        for _ in range(60):
            model = random_legal_abstract(rng)
            batch = check(model)

            engine = Engine(model.space)
            pending = {
                s.rank: list(s.column) for s in model.sequences
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


class _RandomPop(list):
    """A worklist served in a seeded random order, in place of the engine's own."""

    def __init__(self, rng):
        super().__init__()
        self.rng = rng

    def pop(self):
        return super().pop(self.rng.randrange(len(self)))


def _observed(engine, verdict):
    """What a run shows: its verdict, its counters and, once there is a
    verdict, its JSON report (compact, which is `to_json`'s text but for
    whitespace, and quicker)."""
    counters = engine.steps, engine.matched_pairs, engine.table_size
    if verdict is None:
        return None, counters, None
    report = build_report(verdict, engine._space, messages=engine.message_count, steps=engine.steps)
    return verdict, counters, json.dumps(report)


class TestOrderFreedom:
    # the engine may serve its ready ranks in any order: one that serves them
    # at random shows the same verdict, counters and report as a plain one

    def test_every_small_abstract_model(self):
        # every model of up to 3 lines of up to 3 characters from `abc`
        rng = random.Random(5)
        lines = ["".join(chars) for size in range(4) for chars in itertools.product("abc", repeat=size)]
        for count in range(4):
            for rows in itertools.product(lines, repeat=count):
                model = model_from_tuples(rows)
                plain, shuffled = Engine(model.space), Engine(model.space)
                shuffled._queue = _RandomPop(rng)
                plain.load(model)
                shuffled.load(model)
                assert _observed(shuffled, shuffled.drain()) == _observed(plain, plain.drain())

    @pytest.mark.parametrize("pattern", ["pairs", "ring", "random"])
    def test_streamed_generated_models(self, pattern):
        # drained after some events, so that ready ranks pile up, and
        # compared after each drain: each reaches the same state
        rng = random.Random(6)
        for seed in range(30):
            processes = 2 * rng.randint(1, 4) if pattern == "pairs" else rng.randint(3, 8)
            model = generate(GenSpec(pattern, processes, rng.randint(1, 30), seed))
            rows = [seq.column for seq in model.sequences]
            plain, shuffled = Engine(model.space), Engine(model.space)
            shuffled._queue = _RandomPop(rng)
            for rank, start, end in interleaving(rng, rows):
                for engine in (plain, shuffled):
                    if start is None:
                        engine.close(rank)
                    else:
                        engine.append(rank, rows[rank][start:end])
                if rng.random() < 0.3:
                    assert _observed(shuffled, shuffled.drain()) == _observed(plain, plain.drain())
                    assert_one_pending_per_signature(plain)
            verdict = plain.drain()
            assert verdict is not None
            assert _observed(shuffled, shuffled.drain()) == _observed(plain, verdict)

    def test_halo_models(self):
        # reused envelopes, so a forced run follows most matches of a safe
        # halo; loaded, then streamed in random chunks
        rng = random.Random(7)
        for processes in range(2, 8):
            for safe in (True, False):
                model = halo_model(processes, rng.randint(1, 20), safe)
                plain, shuffled = Engine(model.space), Engine(model.space)
                shuffled._queue = _RandomPop(rng)
                plain.load(model)
                shuffled.load(model)
                assert _observed(shuffled, shuffled.drain()) == _observed(plain, plain.drain())
                rows = [seq.column for seq in model.sequences]
                plain, shuffled = Engine(model.space), Engine(model.space)
                shuffled._queue = _RandomPop(rng)
                for rank, start, end in interleaving(rng, rows):
                    for engine in (plain, shuffled):
                        if start is None:
                            engine.close(rank)
                        else:
                            engine.append(rank, rows[rank][start:end])
                    assert _observed(shuffled, shuffled.drain()) == _observed(plain, plain.drain())


def test_a_forced_run_compares_each_pair_of_heads_once(monkeypatch):
    # every forced run of a safe halo has length 1, P/2 of them per
    # iteration and P/2 per boundary between two: `_run` compares the pair
    # after a match, and `_common_run` starts past it, so such a run costs
    # one slice compare
    slices = []

    class Counting(array):
        def __getitem__(self, key):
            if isinstance(key, slice):
                slices.append(key)
            return array.__getitem__(self, key)

    runs = []

    def counted(a, i, b, j):
        runs.append(_common_run(Counting(a.typecode, a[i:]), 0, Counting(b.typecode, b[j:]), 0))
        return runs[-1]

    monkeypatch.setattr(engine_mod, "_common_run", counted)
    verdict, engine = check_with_engine(halo_model(8, 10))
    assert verdict == NoDeadlock()
    assert engine.steps == 8 * 4 * 10
    assert runs == [0] * (4 * (10 + 9))
    assert len(slices) == 2 * len(runs)


def _naive_common_run(a, i, b, j):
    k = 0
    while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
        k += 1
    return k


class TestCommonRun:
    def test_mismatch_at_each_galloping_boundary(self):
        # chunks double from 1, so every offset up to 70 sits on, before or
        # after a chunk or bisection boundary (1, 2, 3, 4, 5, 8, 9, 16, 17, ...)
        rng = random.Random(8)
        for k in range(70):
            for i, j in [(0, 0), (3, 0), (0, 5), (7, 2)]:
                run = array("l", rng.choices(range(4), k=k))
                a = array("l", rng.choices(range(4), k=i)) + run + array("l", [1, 2, 3])
                b = array("l", rng.choices(range(4), k=j)) + run + array("l", [4, 2, 3])
                assert _common_run(a, i, b, j) == k
                assert _common_run(b, j, a, i) == k

    def test_run_reaching_a_tail(self):
        for k in (1, 2, 3, 7, 8, 9, 100):
            run = array("l", range(k))
            longer = run + array("l", [5, 6])
            for i, j in [(0, 0), (2, 1)]:
                a = array("l", [9] * i) + run
                b = array("l", [8] * j) + longer
                assert _common_run(a, i, b, j) == k  # a's tail
                assert _common_run(b, j, a, i) == k  # b's tail
                assert _common_run(a, i, array("l", [8] * j) + run, j) == k  # both

    def test_empty_remainder(self):
        a, b = array("l", [1, 2]), array("l", [1, 2, 3])
        assert _common_run(a, 2, b, 0) == 0
        assert _common_run(b, 0, a, 2) == 0
        assert _common_run(a, 2, b, 3) == 0
        assert _common_run(array("l"), 0, array("l"), 0) == 0

    def test_agrees_with_naive_scan(self):
        rng = random.Random(19)
        for _ in range(2000):
            run = array("l", rng.choices(range(3), k=rng.choice([0, 1, rng.randint(0, 40), rng.randint(0, 300)])))
            a = array("l", rng.choices(range(3), k=rng.randint(0, 6))) + run
            b = array("l", rng.choices(range(3), k=rng.randint(0, 6))) + run
            a += array("l", rng.choices(range(3), k=rng.randint(0, 4)))
            b += array("l", rng.choices(range(3), k=rng.randint(0, 4)))
            i, j = rng.randint(0, len(a)), rng.randint(0, len(b))
            assert _common_run(a, i, b, j) == _naive_common_run(a, i, b, j)


def _lockstep_model(rng):
    """A `bench.generate` pairs or ring model, abstracted, with each rank
    pair's signatures folded onto a few, then one local perturbation: two
    adjacent occurrences of one rank swapped, or one dropped."""
    if rng.random() < 0.5:
        spec = GenSpec("pairs", 2 * rng.randint(1, 3), rng.randint(2, 40))
    else:
        spec = GenSpec("ring", rng.randint(3, 5), rng.randint(1, 10))
    model = generate(spec)
    members = {}
    for seq in model.sequences:
        for o in seq.occurrences:
            members.setdefault(o.signature, set()).add(seq.rank)
    # a folded signature keeps its rank pair, so the model stays legal
    fold = rng.choice([1, 2, 3, None])
    ordinal, label = {}, {}
    for sig in sorted(members):
        key = tuple(sorted(members[sig]))
        ordinal[key] = ordinal.get(key, -1) + 1
        label[sig] = (key, ordinal[key] % fold if fold else ordinal[key])
    space = SignatureSpace()
    rows = [
        [MessageOccurrence(space.intern_character(str(label[o.signature]))) for o in seq.occurrences]
        for seq in model.sequences
    ]
    row = rng.choice([row for row in rows if len(row) > 1])
    pos = rng.randrange(len(row) - 1)
    if rng.random() < 0.5:
        row[pos], row[pos + 1] = row[pos + 1], row[pos]
    else:
        del row[pos]
    return Model([Sequence(rank, row) for rank, row in enumerate(rows)], Mode.ABSTRACT, space)


def test_lockstep_runs_agree_with_cycle_check_batch_and_streamed():
    # streamed in random chunks, so runs are cut at sequence tails and
    # resumed after later appends
    rng = random.Random(13)
    for _ in range(300):
        model = _lockstep_model(rng)
        verdict, engine = check_with_engine(model)
        assert verdict == cycle_check(model).verdict
        for _ in range(2):
            streamed = Engine(model.space)
            rows = [seq.column for seq in model.sequences]
            for rank, start, end in interleaving(rng, rows):
                if start is None:
                    streamed.close(rank)
                else:
                    streamed.append(rank, rows[rank][start:end])
                streamed_verdict = streamed.drain()
                if streamed_verdict is not None:
                    break
            assert streamed_verdict == verdict
            if not isinstance(verdict, Illegal):  # an illegal stream halts where it is found
                assert (streamed.steps, streamed.matched_pairs, streamed.table_size) == (
                    engine.steps, engine.matched_pairs, engine.table_size,
                )
            if isinstance(verdict, Deadlock):  # the table is exactly the blocked heads
                blocked = {b.signature: b.rank for b in verdict.report.blocked}
                assert engine._table == blocked and streamed._table == blocked


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
