import random

import pytest

from support import abstract_model, classify, model_from_tuples, random_legal_abstract
from syncheck import (
    Deadlock,
    Illegal,
    NoDeadlock,
    StateCapExceeded,
    check,
    cycle_check,
    simulate_exhaustive,
)


class TestSimulator:
    def test_paper_example_has_no_enabled_transition(self):
        result = simulate_exhaustive(abstract_model("ab", "bc", "ca"))
        assert isinstance(result.verdict, Deadlock)
        assert result.states_explored == 1
        assert result.confluence_agreed

    def test_single_schedule_pair(self):
        result = simulate_exhaustive(abstract_model("a", "a"))
        assert isinstance(result.verdict, NoDeadlock)

    def test_illegal_passes_through(self):
        result = simulate_exhaustive(abstract_model("a", "a", "a"))
        assert isinstance(result.verdict, Illegal)

    def test_deadlock_report_conserves_messages(self):
        result = simulate_exhaustive(abstract_model("aa", "a"))
        report = result.verdict.report
        assert 2 * report.matched_pairs + report.residual == 3
        assert [(b.rank, b.position) for b in report.blocked] == [(0, 1)]

    def test_state_cap(self):
        model = model_from_tuples(["ab" * 20, "ab" * 20])
        with pytest.raises(StateCapExceeded):
            simulate_exhaustive(model, cap=5)

    def test_agrees_with_engine_on_random_models(self):
        rng = random.Random(99)
        for _ in range(200):
            model = random_legal_abstract(rng, max_procs=4, max_events=6)
            sim = simulate_exhaustive(model)
            verdict = check(model)
            assert classify(sim.verdict) == classify(verdict)
            assert sim.confluence_agreed
            if isinstance(verdict, Deadlock):
                assert sim.verdict.report == verdict.report


class TestCycleCheck:
    def test_paper_example_witness(self):
        result = cycle_check(abstract_model("ab", "bc", "ca"))
        assert isinstance(result.verdict, Deadlock)
        assert result.witness is not None
        assert len(result.witness) == 3
        assert {node.signature for node in result.witness} == {0, 1, 2}

    def test_acyclic_chain(self):
        result = cycle_check(abstract_model("ab", "ab"))
        assert isinstance(result.verdict, NoDeadlock)
        assert result.witness is None

    def test_unpairable_residue(self):
        result = cycle_check(abstract_model("aa", "a"))
        assert isinstance(result.verdict, Deadlock)
        assert result.witness is None
        assert result.unpaired == ((0, 1),)
        assert result.verdict.report.matched_pairs == 1

    def test_illegal_passes_through(self):
        result = cycle_check(abstract_model("a", "a", "a"))
        assert isinstance(result.verdict, Illegal)

    def test_partial_progress_before_cycle(self):
        # one pair completes, then the wait cycle of the paper example
        result = cycle_check(abstract_model("xab", "xbc", "ca"))
        assert isinstance(result.verdict, Deadlock)
        assert result.verdict.report.matched_pairs == 1
        assert result.witness is not None

    def test_report_matches_engine_report(self):
        rng = random.Random(41)
        for _ in range(200):
            model = random_legal_abstract(rng)
            engine_verdict = check(model)
            cyc = cycle_check(model)
            assert classify(cyc.verdict) == classify(engine_verdict)
            if isinstance(engine_verdict, Deadlock):
                assert cyc.verdict.report == engine_verdict.report

    def test_witness_endpoints_lie_in_their_sequences(self):
        result = cycle_check(abstract_model("ab", "bc", "ca"))
        model = abstract_model("ab", "bc", "ca")
        by_rank = {seq.rank: seq for seq in model.sequences}
        for node in result.witness:
            for rank, pos in node.endpoints:
                assert by_rank[rank].signatures[pos] == node.signature
