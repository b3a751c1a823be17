"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the timing-sensitive criteria assume an otherwise idle machine.
"""
import functools
import gc
import io
import itertools
import json
import random
import statistics
import time
import tracemalloc
from contextlib import contextmanager

from support import PAPER_DSL, classify, halo_model, in_order, model_from_tuples, random_legal_abstract, run_cli
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
from syncheck.cli import main
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


def test_criterion_3_halo_against_simulate_exhaustive():
    with criterion("3 exhaustive differential, halo"):
        # every small halo exchange, both orderings: the engine's verdict is
        # the one every interleaving reaches
        for processes in range(2, 6):
            for iterations in (1, 2):
                for safe in (True, False):
                    model = halo_model(processes, iterations, safe)
                    sim = simulate_exhaustive(model)
                    assert sim.confluence_agreed
                    assert check(model) == sim.verdict, (processes, iterations, safe)


def test_criterion_4_randomized_differential_halo():
    with criterion("4 randomized differential, halo"):
        # reused envelopes, so forced runs of length 1 in the safe ordering;
        # the unsafe one deadlocks at once, and an odd safe one after a few
        # matches
        rng = random.Random(20241)
        for _ in range(200):
            model = halo_model(rng.randint(2, 9), rng.randint(1, 40), rng.random() < 0.5)
            assert check(model) == cycle_check(model).verdict


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


def _blank_runs(k: int) -> str:
    """A pairs DSL rendering of k occurrences with a run of blanks and a
    comment after every statement, the shape on which the bulk reader once
    grew quadratically."""
    return render_dsl(generate(GenSpec("pairs", 2, k // 2))).replace(";\n", ";" + " " * 64 + "# c } ; {\n")


def _spaced_abstract(k: int) -> str:
    """Abstract pairs of k occurrences, each character followed by a run of
    64 blanks and tabs, which the interning pass deletes."""
    gap = " \t" * 32
    return "".join(f"P{rank}: {gap.join('ab' * (k // 4))}\n" for rank in (0, 1))


def test_parse_dsl_linearity():
    with criterion("5 linearity, parse_dsl"):
        # each n parses in at least 20 ms on a 2-CPU VM; the texts are
        # rendered before the timed region, and n and 2n alternate, each
        # round starting with the size the last round ended with, so a
        # burst of load falls on both sizes
        shapes = {
            "pairs": (2**16, parse_dsl, lambda k: render_dsl(generate(GenSpec("pairs", 2, k // 2)))),
            "random": (2**16, parse_dsl, lambda k: render_dsl(generate(GenSpec("random", 64, k // 64)))),
            "blank runs": (2**15, parse_dsl, _blank_runs),
            "spaced abstract": (2**17, parse_abstract, _spaced_abstract),
        }
        for name, (n, parse, make) in shapes.items():
            texts = {k: make(k) for k in (n, 2 * n)}
            runs = {k: [] for k in texts}
            for round_ in range(5):
                for k in (n, 2 * n) if round_ % 2 == 0 else (2 * n, n):
                    gc.collect()
                    start = time.perf_counter()
                    model = parse(texts[k])
                    runs[k].append(time.perf_counter() - start)
                    assert model.message_count == k
            ratio = statistics.median(runs[2 * n]) / statistics.median(runs[n])
            assert 1.5 <= ratio <= 3.0, f"{name}: median t(2n)/t(n) {ratio:.2f} ({runs})"


def test_per_head_linearity():
    with criterion("5 linearity, per-head matching"):
        # a safe halo matches every head by a step of `_run` or a forced run
        # of length 1, never by a long gallop, so criterion 5's pairs model
        # does not time this path; n = 2^18 checks in about 0.1 s, and n and
        # 2n alternate as in the parse gate
        n = 2**18
        models = {k: halo_model(64, k // 256) for k in (n, 2 * n)}
        runs = {k: [] for k in models}
        for round_ in range(5):
            for k in (n, 2 * n) if round_ % 2 == 0 else (2 * n, n):
                gc.collect()
                gc.disable()
                try:
                    start = time.perf_counter()
                    verdict, engine = check_with_engine(models[k])
                    runs[k].append(time.perf_counter() - start)
                finally:
                    gc.enable()
                assert classify(verdict) == "ok"
                assert engine.steps == k
        ratio = statistics.median(runs[2 * n]) / statistics.median(runs[n])
        assert 1.5 <= ratio <= 3.0, f"median t(2n)/t(n) {ratio:.2f} ({runs})"


def test_criterion_9_comparison_with_cycle_check():
    with criterion("9 comparison with cycle_check"):
        # the paper's claim that matching beats circle detection: in one
        # process, at n = 2^17, engine and cycle_check alternate, 5 runs
        # each, so a ratio of medians does not move with the machine's
        # drift as seconds do, and a burst of load must hit 3 runs of one
        # backend to move it
        n = 2**17
        models = {
            "pairs": generate(GenSpec("pairs", 2, n // 2)),
            "random": generate(GenSpec("random", 64, n // 64)),
            "ring": generate(GenSpec("ring", 64, n // 128)),
            "safe halo": halo_model(64, n // 256),
            "unsafe halo": halo_model(64, n // 256, safe=False),
        }
        ratios = {}
        gc.collect()
        gc.disable()
        try:
            for name, model in models.items():
                assert model.message_count == n
                runs = {check_with_engine: [], cycle_check: []}
                for _ in range(5):
                    for backend, times in runs.items():
                        start = time.perf_counter()
                        backend(model)
                        times.append(time.perf_counter() - start)
                ratios[name] = statistics.median(runs[cycle_check]) / statistics.median(runs[check_with_engine])
        finally:
            gc.enable()
        print("cycle_check / engine:", {name: round(ratio, 2) for name, ratio in ratios.items()})
        floors = {"safe halo": 1.25}  # every head is a step of `_run` there
        low = {name: ratio for name, ratio in ratios.items() if ratio < floors.get(name, 2.0)}
        assert not low, f"cycle_check / engine below its floor: {ratios}"


def test_criterion_9_space_linearity(tmp_path):
    with criterion("9 space, check"):
        # the paper's O(n) space claim: the tracemalloc peak of a whole
        # in-process `check`, text read included, at n and 2n on generated
        # DSL files; TestCheckMemory bounds bytes per occurrence at one n
        n = 2**15
        peaks = {}
        for k in (n, 2 * n):
            path = tmp_path / f"random-{k}.dsl"
            path.write_text(render_dsl(generate(GenSpec("random", 64, k // 64))))
            # a first call, so one-time costs (lazy imports, caches) fall on neither size
            main(["check", str(path), "--format", "json"], stdout=io.StringIO(), stderr=io.StringIO())
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                code = main(["check", str(path), "--format", "json"], stdout=io.StringIO(), stderr=io.StringIO())
                peaks[k] = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert code == 2
        ratio = peaks[2 * n] / peaks[n]
        print(f"check peak(2n)/peak(n): {ratio:.2f}, {peaks[n] / n:.1f} -> {peaks[2 * n] / (2 * n):.1f} B/occurrence")
        assert 1.5 <= ratio <= 2.5, f"peak(2n)/peak(n) {ratio:.2f} ({peaks})"


def _rank_events(processes: int) -> str:
    """perfbench's `stream-ranks` events: a generated pairs model of 12
    occurrences per rank as `tag,src,dst` tokens, appended 4 at a time
    round-robin over a seeded rank order, then closed in first-append order."""
    model = generate(GenSpec("pairs", processes, 12))
    order = random.Random(0).sample([s.rank for s in model.sequences], len(model.sequences))
    tokens = {
        s.rank: [f"{o.envelope.tag},{o.envelope.source},{o.envelope.destination}" for o in s.occurrences]
        for s in model.sequences
    }
    lines = [f"append {rank} {' '.join(tokens[rank][i:i + 4])}" for i in range(0, 12, 4) for rank in order]
    return "\n".join(lines + [f"close {rank}" for rank in order] + ["end"]) + "\n"


def test_stream_linearity():
    with criterion("5 linearity, stream"):
        # a whole in-process `stream` session, token reading, appends,
        # closes and drains, at P = 4,000 and 8,000 ranks; closes in
        # first-append order are the shape whose drains once grew with the
        # closed-rank count.  Sizes alternate as in the parse gate, the CPU
        # clock leaves out the time the process waits for a CPU, and each
        # size counts its fastest run.  On a shared machine a session's CPU
        # time can still read 1.6x for seconds, which took single
        # measurements to 1.30 and 3.03 on code that reads 2.1-2.3 otherwise,
        # so the gate fails only if 3 measurements in a row are out of range:
        # a path that is not linear reads out of range every time
        n = 4000
        events = {k: _rank_events(k) for k in (n, 2 * n)}
        ratios = []
        for _ in range(3):
            runs = {k: [] for k in events}
            for round_ in range(5):
                for k in (n, 2 * n) if round_ % 2 == 0 else (2 * n, n):
                    out = io.StringIO()
                    gc.collect()
                    gc.disable()
                    try:
                        start = time.process_time()
                        code = main(["stream", "--format", "json"], stdin=io.StringIO(events[k]), stdout=out, stderr=io.StringIO())
                        runs[k].append(time.process_time() - start)
                    finally:
                        gc.enable()
                    assert code == 0
                    assert json.loads(out.getvalue())["stats"]["messages"] == 12 * k
            ratios.append(min(runs[2 * n]) / min(runs[n]))
            if 1.5 <= ratios[-1] <= 3.0:
                break
        print("stream t(2n)/t(n):", [round(ratio, 2) for ratio in ratios])
        assert 1.5 <= ratios[-1] <= 3.0, f"fastest t(2n)/t(n) in each measurement: {ratios}"


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

            engine = Engine(model.space)
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


def test_criterion_6_streaming_equivalence_halo():
    with criterion("6 streaming equivalence, halo"):
        # appends of `chunk` signatures go round-robin over the ranks, then
        # every rank closes, so forced runs are cut at a tail and resumed
        rng = random.Random(27182)
        for _ in range(60):
            model = halo_model(rng.randint(2, 8), rng.randint(1, 12), rng.random() < 0.5)
            batch_verdict, batch_engine = check_with_engine(model)
            batch = _report_body(batch_verdict, model.space, batch_engine)

            engine = Engine(model.space)
            chunk = rng.randint(1, 9)
            columns = {s.rank: s.column for s in model.sequences}
            for start in range(0, max(map(len, columns.values())), chunk):
                for rank, column in columns.items():
                    engine.append(rank, column[start:start + chunk])
                    assert engine.drain() is None
            for rank in columns:
                engine.close(rank)
                verdict = engine.drain()
            assert verdict is not None
            assert _report_body(verdict, model.space, engine) == batch


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
