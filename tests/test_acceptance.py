"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the timing-sensitive criteria assume an otherwise idle machine.
"""
import functools
import gc
import itertools
import json
import random
import statistics
import time
from contextlib import contextmanager

from support import PAPER_DSL, classify, in_order, model_from_tuples, random_legal_abstract, run_cli
from syncheck import (
    Deadlock,
    Engine,
    Envelope,
    Illegal,
    Mode,
    Model,
    Sequence,
    SignatureSpace,
    check,
    check_with_engine,
    cycle_check,
    parse_abstract,
    parse_dsl,
    render_dsl,
    simulate_exhaustive,
)
from syncheck.bench import GenSpec, generate
from syncheck.report import build_report


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {name}: FAIL")
        raise
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_paper_example(tmp_path):
    with criterion("1 paper example"):
        start = time.perf_counter()
        for model in (parse_abstract("ab\nbc\nca"), parse_dsl(PAPER_DSL)):
            verdict = check(model)
            assert isinstance(verdict, Deadlock)
            report = verdict.report
            assert [(b.rank, b.position) for b in report.blocked] == [(0, 0), (1, 0), (2, 0)]
            assert report.matched_pairs == 0
            assert report.residual == 6
        path = tmp_path / "paper.txt"
        path.write_text("ab\nbc\nca\n")
        code, _, _ = run_cli(["check", str(path)])
        assert code == 2
        assert time.perf_counter() - start < 1.0


def test_criterion_2_rule2_fixture(tmp_path):
    with criterion("2 rule-2 fixture"):
        verdict = check(parse_abstract("a\na\na"))
        assert isinstance(verdict, Illegal)
        assert verdict.reason.ranks == (0, 1, 2)
        path = tmp_path / "m.txt"
        path.write_text("a\na\na\n")
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        assert code == 3
        reason = json.loads(out)["reason"]
        assert reason["signature"] == "a"
        assert reason["processes"] == [0, 1, 2]


@functools.lru_cache(maxsize=1)
def _exhaustive_suite():
    """Every abstract model with <= 3 sequences, lengths <= 3, alphabet <= 3.

    Returns (model count, mismatch count, non-confluent legal count, seconds).
    """
    alphabet = "abc"
    strings = [""] + [
        "".join(t) for length in (1, 2, 3) for t in itertools.product(alphabet, repeat=length)
    ]
    start = time.perf_counter()
    models = mismatches = non_confluent = 0
    for nseq in (0, 1, 2, 3):
        for combo in itertools.product(strings, repeat=nseq):
            model = model_from_tuples(combo)
            engine_class = classify(check(model))
            sim = simulate_exhaustive(model)
            agreed = classify(sim.verdict) == engine_class
            if engine_class != "illegal":
                agreed = agreed and classify(cycle_check(model).verdict) == engine_class
                if not sim.confluence_agreed:
                    non_confluent += 1
            models += 1
            if not agreed:
                mismatches += 1
    return models, mismatches, non_confluent, time.perf_counter() - start


def test_criterion_3_exhaustive_differential():
    with criterion("3 exhaustive differential"):
        models, mismatches, _, elapsed = _exhaustive_suite()
        assert models == 1 + 40 + 40**2 + 40**3
        assert mismatches == 0
        assert elapsed < 60.0


def test_criterion_4_randomized_differential():
    with criterion("4 randomized differential"):
        rng = random.Random(20240)
        for trial in range(1000):
            spec = GenSpec(
                "random",
                processes=rng.randint(2, 6),
                messages_per_process=rng.randint(1, 50),
                seed=trial,
            )
            model = generate(spec)
            assert classify(check(model)) == classify(cycle_check(model).verdict)


def test_criterion_5_linearity():
    with criterion("5 linearity"):
        # exact step bound and memory bound at n = 10^6
        spec = GenSpec("pairs", processes=2, messages_per_process=500_000)
        generated = generate(spec)
        rows = [(seq.rank, seq.occurrences) for seq in generated.sequences]
        gc.collect()
        gc.disable()  # keep collection pauses out of the timed region
        try:
            # building the model lowers its occurrences to columns and
            # checks their roles, so that stays timed with the check
            start = time.perf_counter()
            model = Model([Sequence(rank, occurrences) for rank, occurrences in rows], Mode.STRICT, generated.space)
            verdict, engine = check_with_engine(model)
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        n = model.message_count
        assert n == 1_000_000
        assert classify(verdict) == "ok"
        assert engine.steps <= n + spec.processes
        assert engine.table_size <= len(model.sequences)
        assert elapsed < 5.0

        # wall-time doubling ratio across n = 2^17 .. 2^21, each time the
        # engine's median over 5 runs after a discarded warm-up, as
        # `bench_run` times it; the sweep leaves out its cycle-detector runs
        times = {}
        step_counts = {}
        for exp in range(17, 22):
            n = 2**exp
            model = generate(GenSpec("pairs", processes=2, messages_per_process=n // 2))
            runs = []
            for _ in range(1 + 5):
                gc.disable()
                try:
                    start = time.perf_counter()
                    _, engine = check_with_engine(model)
                    runs.append(time.perf_counter() - start)
                finally:
                    gc.enable()
            assert engine.steps <= n + 2
            times[n] = statistics.median(runs[1:])
            step_counts[n] = engine.steps
        for exp in range(17, 21):
            # steps double exactly; wall time roughly so (median over the
            # sweep, since individual ratios jitter with machine noise)
            assert step_counts[2 ** (exp + 1)] == 2 * step_counts[2**exp]
        ratios = sorted(times[2 ** (e + 1)] / times[2**e] for e in range(17, 21))
        median_ratio = (ratios[1] + ratios[2]) / 2
        assert 1.5 <= median_ratio <= 3.0, f"median t(2n)/t(n): {median_ratio:.2f} ({ratios})"


def test_parse_dsl_linearity():
    with criterion("5 linearity, parse_dsl"):
        # n = 2^16 parses in about 60 ms on a 2-CPU VM; the texts are
        # rendered before the timed region, and n and 2n alternate
        n = 2**16
        for pattern, processes in (("pairs", 2), ("random", 64)):
            texts = {k: render_dsl(generate(GenSpec(pattern, processes, k // processes))) for k in (n, 2 * n)}
            runs = {k: [] for k in texts}
            for _ in range(3):
                for k, text in texts.items():
                    gc.collect()
                    start = time.perf_counter()
                    parse_dsl(text)
                    runs[k].append(time.perf_counter() - start)
            ratio = statistics.median(runs[2 * n]) / statistics.median(runs[n])
            assert 1.5 <= ratio <= 3.0, f"{pattern}: median t(2n)/t(n) {ratio:.2f} ({runs})"


def _report_body(verdict, space, engine):
    body = build_report(verdict, space, messages=engine.message_count, steps=engine.steps)
    body["stats"].pop("steps")  # drain-call count legitimately differs
    return body


def test_criterion_6_streaming_equivalence():
    with criterion("6 streaming equivalence"):
        rng = random.Random(31415)
        for _ in range(200):
            model = random_legal_abstract(rng, max_procs=5, max_events=14)
            batch_verdict, batch_engine = check_with_engine(model)
            batch = _report_body(batch_verdict, model.space, batch_engine)

            engine = Engine()
            pending = {s.rank: list(s.column) for s in model.sequences}
            for rank in pending:
                engine.append(rank, [])
            open_ranks = set(pending)
            while open_ranks:
                rank = rng.choice(sorted(open_ranks))
                items = pending[rank]
                if items:
                    take = rng.randint(1, len(items))
                    engine.append(rank, items[:take])
                    del items[:take]
                else:
                    engine.close(rank)
                    open_ranks.discard(rank)
                verdict = engine.drain()
            assert verdict is not None
            streamed = _report_body(verdict, model.space, engine)
            assert streamed == batch


def test_criterion_7_order_invariance():
    with criterion("7 order invariance"):
        rng = random.Random(2718)
        for _ in range(200):
            model = random_legal_abstract(rng, max_procs=5, max_events=14)
            base_verdict, base_engine = check_with_engine(model)
            ranks = [s.rank for s in model.sequences]
            for _ in range(10):
                order = ranks[:]
                rng.shuffle(order)
                verdict, engine = check_with_engine(in_order(model, order))
                assert classify(verdict) == classify(base_verdict)
                assert engine.matched_pairs == base_engine.matched_pairs
        _, _, non_confluent, _ = _exhaustive_suite()
        assert non_confluent == 0


def test_criterion_8_signature_space():
    with criterion("8 signature space"):
        start = time.perf_counter()
        space = SignatureSpace()
        envelopes = []
        for comm in range(10):
            for src in range(10):
                for dst_step in range(10):
                    dst = src + 1 + dst_step
                    for tag in range(100):
                        envelopes.append(Envelope(tag, src, dst, comm))
        assert len(envelopes) == 100_000
        issued = [space.signature_for(env) for env in envelopes]
        assert issued == list(range(100_000))
        again = [space.signature_for(env) for env in envelopes]
        assert again == issued
        assert len(space) == 100_000
        for env, sig in zip(envelopes, issued):
            assert space.envelope_of(sig) == env
        assert time.perf_counter() - start < 2.0
