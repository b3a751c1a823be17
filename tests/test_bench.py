import gc
import io
import time

import pytest

from support import classify
from syncheck import bench as bench_mod
from syncheck import check, check_with_engine, cli, cycle_check, render_dsl, validate_static
from syncheck import engine as engine_mod
from syncheck.bench import CSV_HEADER, BenchRow, GenSpec, bench_run, generate


class TestGenSpec:
    def test_ring_needs_three_processes(self):
        with pytest.raises(ValueError):
            GenSpec("ring", processes=2, messages_per_process=1)

    def test_pairs_needs_even_processes(self):
        with pytest.raises(ValueError):
            GenSpec("pairs", processes=3, messages_per_process=1)

    def test_unknown_pattern(self):
        with pytest.raises(ValueError):
            GenSpec("spiral", processes=2, messages_per_process=1)

    def test_messages_positive(self):
        with pytest.raises(ValueError):
            GenSpec("pairs", processes=2, messages_per_process=0)


class TestGenerate:
    def test_ring_three_is_paper_shaped(self):
        model = generate(GenSpec("ring", processes=3, messages_per_process=1))
        assert model.message_count == 6
        assert len(model.space) == 3
        verdict = check(model)
        assert classify(verdict) == "deadlock"
        assert [(b.rank, b.position) for b in verdict.report.blocked] == [(0, 0), (1, 0), (2, 0)]

    def test_pairs_two_is_single_rendezvous(self):
        model = generate(GenSpec("pairs", processes=2, messages_per_process=1))
        assert model.message_count == 2
        assert classify(check(model)) == "ok"

    @pytest.mark.parametrize("P,M", [(3, 1), (4, 2), (6, 3)])
    def test_ring_always_deadlocks(self, P, M):
        assert classify(check(generate(GenSpec("ring", processes=P, messages_per_process=M)))) == "deadlock"

    @pytest.mark.parametrize("P,M", [(2, 1), (2, 10), (4, 5), (8, 3)])
    def test_pairs_never_deadlocks(self, P, M):
        assert classify(check(generate(GenSpec("pairs", processes=P, messages_per_process=M)))) == "ok"

    def test_random_is_legal_by_construction(self):
        for seed in range(20):
            model = generate(GenSpec("random", processes=5, messages_per_process=10, seed=seed))
            assert validate_static(model) is None

    def test_random_agrees_with_cycle_detector(self):
        for seed in range(50):
            model = generate(GenSpec("random", processes=6, messages_per_process=20, seed=seed))
            assert classify(check(model)) == classify(cycle_check(model).verdict)

    def test_deterministic_given_seed(self):
        spec = GenSpec("random", processes=4, messages_per_process=8, seed=1234)
        assert render_dsl(generate(spec)) == render_dsl(generate(spec))

    def test_different_seeds_differ(self):
        a = render_dsl(generate(GenSpec("random", processes=4, messages_per_process=8, seed=1)))
        b = render_dsl(generate(GenSpec("random", processes=4, messages_per_process=8, seed=2)))
        assert a != b


class TestBenchRun:
    def test_rows_cover_both_backends(self):
        rows = bench_run(GenSpec("pairs", processes=2, messages_per_process=50), repetitions=2)
        assert [r.backend for r in rows] == ["engine", "cycle"]
        engine_row = rows[0]
        assert engine_row.n == 100
        assert engine_row.steps == 100
        assert rows[1].steps is None

    def test_engine_steps_linear_on_pairs(self):
        row = bench_run(GenSpec("pairs", processes=2, messages_per_process=1000), repetitions=1)[0]
        assert row.backend == "engine"
        assert row.steps <= row.n + 2

    def test_doubling_n_doubles_steps_on_pairs(self):
        small = bench_run(GenSpec("pairs", 2, 500), repetitions=1)[0]
        large = bench_run(GenSpec("pairs", 2, 1000), repetitions=1)[0]
        assert small.backend == large.backend == "engine"
        assert large.steps == 2 * small.steps

    @pytest.mark.parametrize("repetitions", [0, -2])
    def test_repetitions_below_one_rejected(self, repetitions):
        with pytest.raises(ValueError, match="repetitions must be >= 1"):
            bench_run(GenSpec("pairs", 2, 1), repetitions=repetitions)

    def test_csv_row_shape(self):
        row = BenchRow("engine", "pairs", 2, 5, 10, 1.2345, 10)
        assert row.csv() == "engine,pairs,2,5,10,1.234,10"
        assert CSV_HEADER.count(",") == row.csv().count(",")


class TestBenchTiming:
    """`bench_run` times each backend as `timeit` does, and `syncheck bench`
    prints its rows as CSV or as the same fields in columns."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Backend -> whether the cyclic GC was on, one entry per run."""
        runs = {"engine": [], "cycle": []}
        check_engine, check_cycle = engine_mod.check_with_engine, bench_mod.cycle_check

        def engine(model):
            runs["engine"].append(gc.isenabled())
            return check_engine(model)

        def cycle(model):
            runs["cycle"].append(gc.isenabled())
            if len(runs["cycle"]) == 1:
                time.sleep(0.2)  # a slow warm-up
            return check_cycle(model)

        monkeypatch.setattr(engine_mod, "check_with_engine", engine)
        monkeypatch.setattr(bench_mod, "cycle_check", cycle)
        return runs

    @pytest.mark.parametrize("repetitions", [1, 3])
    def test_each_backend_runs_once_more_than_repetitions_with_gc_off(self, runs, repetitions):
        rows = bench_run(GenSpec("pairs", 2, 5), repetitions=repetitions)
        assert runs == {"engine": [False] * (repetitions + 1), "cycle": [False] * (repetitions + 1)}
        assert rows[0].steps == 10

    @pytest.mark.parametrize("enabled", [True, False])
    def test_gc_is_left_as_it_was(self, enabled):
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            bench_run(GenSpec("pairs", 2, 5), repetitions=1)
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_a_slow_first_run_does_not_move_the_median(self, runs):
        # with one repetition, a kept warm-up would make the median at least 100 ms
        cycle_row = bench_run(GenSpec("pairs", 2, 5), repetitions=1)[1]
        assert len(runs["cycle"]) == 2
        assert cycle_row.backend == "cycle" and cycle_row.median_ms < 50

    def test_text_lines_are_the_csv_lines_in_columns(self, monkeypatch):
        # a median wider than its column, and no steps, shown as "-"
        rows = [BenchRow("engine", "ring", 3, 2, 12, 0.0614, 3), BenchRow("cycle", "ring", 3, 2, 12, 123456789.0, None)]
        monkeypatch.setattr(bench_mod, "bench_run", lambda spec, repetitions: rows)
        printed = {}
        for flags in ([], ["--csv"]):
            out = io.StringIO()
            assert cli.main(["bench", "--pattern", "ring", "-P", "3", "-M", "2", *flags], stdout=out, stderr=io.StringIO()) == 0
            printed[bool(flags)] = out.getvalue().splitlines()
        assert printed[True] == [CSV_HEADER] + [row.csv() for row in rows]
        assert printed[False] == [
            "backend  pattern     P        M          n  median_ms      steps",
            "engine   ring        3        2         12      0.061          3",
            "cycle    ring        3        2         12 123456789.000          -",
        ]
        for text, csv in zip(printed[False], printed[True]):
            assert text.split() == [field or "-" for field in csv.split(",")]
