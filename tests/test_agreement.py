"""`check` and `stream` agree on every model, illegal ones included.

Random abstract models, most made illegal on purpose, are streamed as
random append/close interleavings, once through `Engine` and once through
`syncheck stream`, and compared with a batch `check` of the whole model.
"""
import json
import random
import re

import pytest

from support import classify, halo_model, interleaving, model_from_tuples, random_rows, run_cli
from syncheck import (
    Engine,
    Envelope,
    Illegal,
    MessageOccurrence,
    Mode,
    Model,
    Role,
    Sequence,
    SignatureSpace,
    check,
    parse_dsl,
    render_dsl,
    validate_static,
)
from syncheck.bench import GenSpec, generate
from syncheck.report import build_report, exit_code_for


def violations(rows) -> dict:
    """Character -> sorted member ranks, for each character not in exactly two rows."""
    members: dict = {}
    for rank, row in enumerate(rows):
        for ch in row:
            members.setdefault(ch, set()).add(rank)
    return {ch: sorted(ranks) for ch, ranks in members.items() if len(ranks) != 2}


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        rows = random_rows(rng)
        yield rows, interleaving(rng, rows)


def test_engine_stream_agrees_with_check():
    illegal = single = 0
    for rows, events in _cases(2024, 400):
        model = model_from_tuples(rows)
        batch = check(model)

        engine = Engine(model.space)
        for rank, start, end in events:
            if start is None:
                engine.close(rank)
            else:
                engine.append(rank, model.sequences[rank].column[start:end])
            if engine.drain() is not None:
                break
        streamed = engine.drain()

        assert classify(streamed) == classify(batch), rows
        bad = violations(rows)
        assert isinstance(batch, Illegal) == bool(bad), rows
        if not bad:
            assert streamed == batch, rows
            continue
        illegal += 1
        if len(bad) == 1:
            single += 1
            ((ch, ranks),) = bad.items()
            assert model.space.label_of(streamed.reason.signature) == ch, rows
            assert model.space.label_of(batch.reason.signature) == ch, rows
            if len(ranks) <= 3:  # beyond three, each reports the first three it meets
                assert streamed.reason.ranks == batch.reason.ranks == tuple(ranks), rows
    assert illegal > 200 and single > 150


def _assert_stream_agrees(rows, batch_code, batch_out, code, out, err):
    assert code == batch_code, (rows, err)
    batch, streamed = json.loads(batch_out), json.loads(out)
    bad = violations(rows)
    if not bad:
        for report in (batch, streamed):
            report["stats"].pop("steps")
        assert streamed == batch, rows
    elif len(bad) == 1:
        ((ch, ranks),) = bad.items()
        assert streamed["reason"]["signature"] == batch["reason"]["signature"] == ch, rows
        if len(ranks) <= 3:
            assert streamed["reason"]["processes"] == batch["reason"]["processes"] == ranks
            assert streamed["reason"] == batch["reason"], rows  # the message names no dense signature


def _chunks(rng, chars) -> list:
    """`chars` cut at random into tokens of one or more characters."""
    cuts = sorted(rng.sample(range(1, len(chars)), rng.randint(0, len(chars) - 1)))
    return ["".join(chars[a:b]) for a, b in zip([0] + cuts, cuts + [len(chars)])]


def _stream_agrees_with_check(tmp_path, seed, tokens):
    """Stream `_cases(seed, 150)` with each appended slice cut into tokens by
    `tokens(rng, chars)`, and compare each verdict with a batch `check`."""
    rng = random.Random(seed)
    path = tmp_path / "m.txt"
    for rows, events in _cases(seed, 150):
        path.write_text("".join(f"P{rank}: {''.join(row)}\n" for rank, row in enumerate(rows)))
        batch_code, batch_out, _ = run_cli(["check", str(path), "--format", "json"])
        lines = [
            f"close {rank}" if start is None else f"append {rank} {' '.join(tokens(rng, rows[rank][start:end]))}"
            for rank, start, end in events
        ]
        code, out, err = run_cli(["stream", "--format", "json"], "\n".join(lines + ["end"]) + "\n")
        _assert_stream_agrees(rows, batch_code, batch_out, code, out, err)


def test_cli_stream_agrees_with_check(tmp_path):
    _stream_agrees_with_check(tmp_path, 7, lambda rng, chars: chars)


def test_cli_stream_reads_abstract_tokens_per_character(tmp_path):
    # a token of several characters is that many occurrences, as in the
    # abstract format: `append 0 ab` equals `P0: ab`
    _stream_agrees_with_check(tmp_path, 13, _chunks)


@pytest.mark.parametrize(
    "rows, processes",
    [
        # the third `a` sits behind the blocked head `c`
        (["ab", "ba", "cda", "dc"], [0, 1, 2]),
        (["a"], [0]),
    ],
)
def test_illegal_repros_agree(tmp_path, rows, processes):
    path = tmp_path / "m.txt"
    path.write_text("".join(f"P{rank}: {row}\n" for rank, row in enumerate(rows)))
    batch_code, batch_out, _ = run_cli(["check", str(path), "--format", "json"])
    events = [f"append {rank} {' '.join(row)}" for rank, row in enumerate(rows)]
    events += [f"close {rank}" for rank in range(len(rows))] + ["end"]
    code, out, _ = run_cli(["stream", "--format", "json"], "\n".join(events) + "\n")
    assert code == batch_code == 3
    batch, streamed = json.loads(batch_out), json.loads(out)
    assert batch["verdict"] == streamed["verdict"] == "illegal"
    assert batch["reason"] == streamed["reason"]
    assert batch["reason"]["processes"] == processes
    assert batch["stats"]["steps"] == 0


def _strict_api_model(rows) -> Model:
    """The API model of `rows`, (rank, tokens) pairs in model order, each
    token `tag,src,dst`; a rank sends at its token's source, receives at its
    destination and has no role elsewhere, as a stream infers roles."""
    space = SignatureSpace()
    sequences = []
    for rank, tokens in rows:
        occurrences = []
        for token in tokens:
            env = Envelope(*map(int, token.split(",")))
            role = Role.SEND if rank == env.source else Role.RECV if rank == env.destination else Role.UNSPECIFIED
            occurrences.append(MessageOccurrence(space.signature_for(env), role, env))
        sequences.append(Sequence(rank, occurrences))
    return Model(sequences, Mode.STRICT, space)


@pytest.mark.parametrize(
    "rows, reason",
    [
        ([(0, ["2,0,1"]), (1, ["2,0,1"]), (2, ["1,0,1"])],
         ("1,0,1,0", [2], "occurs in sequences [2] but its envelope endpoints are [0, 1]")),
        ([(0, ["1,0,1", "2,0,1"]), (2, ["1,0,1"]), (1, ["2,0,1", "1,0,1"])],
         ("1,0,1,0", [0, 2], "occurs in sequences [0, 2] but its envelope endpoints are [0, 1]")),
        ([(1, ["1,0,1"]), (0, ["1,0,1", "1,0,1"]), (2, ["1,0,1"])],
         ("1,0,1,0", [0, 1, 2], "occurs in 3 sequences, expected exactly 2")),
    ],
    ids=["alone", "after-source", "third-after-both"],
)
def test_a_member_off_its_endpoints_gets_one_verdict_from_check_and_stream(rows, reason):
    # a stream may match before the violation arrives, so neither stats nor steps are compared
    model = _strict_api_model(rows)
    batch = build_report(check(model), model.space, messages=model.message_count)
    events = [f"append {rank} {' '.join(tokens)}" for rank, tokens in rows] + [f"close {rank}" for rank, _ in rows]
    code, out, err = run_cli(["stream", "--format", "json"], "\n".join(events + ["end"]) + "\n")
    streamed = json.loads(out)
    assert (code, err) == (exit_code_for(batch), "") == (3, "")
    assert streamed["verdict"] == batch["verdict"] == "illegal"
    assert streamed["reason"] == batch["reason"] == dict(zip(("signature", "processes", "message"), reason))


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda: generate(GenSpec("ring", 64, 200)), 2),
        (lambda: generate(GenSpec("random", 64, 800)), 2),
        # envelopes reused every iteration
        (lambda: halo_model(64, 20), 0),
        (lambda: halo_model(64, 20, safe=False), 2),
    ],
    ids=["ring", "random", "safe-halo", "unsafe-halo"],
)
def test_a_generated_strict_model_streams_as_it_checks(tmp_path, make, code):
    # its DSL rendering's columns as `tag,src,dst,comm` tokens, 50 to an
    # append, round-robin over the ranks, then every rank closed; the cycle
    # oracle gives the exit code too
    path = tmp_path / "m.dsl"
    path.write_text(render_dsl(make()))
    model = parse_dsl(path.read_text())
    rows = [(s.rank, [",".join(map(str, model.space.envelope_of(sig))) for sig in s.column]) for s in model.sequences]
    events = [
        f"append {rank} {' '.join(tokens[k:k + 50])}"
        for k in range(0, max(len(tokens) for _, tokens in rows), 50)
        for rank, tokens in rows
        if tokens[k:k + 50]
    ]
    events += [f"close {rank}" for rank, tokens in rows if tokens]
    check_code, check_out, _ = run_cli(["check", str(path), "--format", "json"])
    stream_code, stream_out, err = run_cli(["stream", "--mode", "strict", "--format", "json"], "\n".join(events) + "\n")
    assert (check_code, stream_code, err) == (code, code, "")
    keys = ("verdict", "blocked", "matchedPairs", "residual")
    assert [json.loads(stream_out)[k] for k in keys] == [json.loads(check_out)[k] for k in keys]
    assert run_cli(["oracle", str(path), "--backend", "cycle"])[0] == code


def test_abstract_and_strict_twins_name_the_same_violation():
    # signature 5 lies outside both spaces; its column comes first, so the
    # third member of signature 0 that follows is not the one named
    columns = [Sequence(0, column=[5, 0]), Sequence(1, column=[0]), Sequence(2, column=[0])]
    twins = [
        Model(columns, Mode.ABSTRACT, SignatureSpace(["a", "b"])),
        Model(columns, Mode.STRICT, SignatureSpace([Envelope(1, 0, 1), Envelope(2, 0, 1)])),
    ]
    reasons = [validate_static(model) for model in twins]
    assert reasons[0] == reasons[1]
    assert reasons[0].message == "signature 5 at rank 0 is outside the signature space, range(2)"
    assert [check(model).reason for model in twins] == reasons


def _rank_reports(tmp_path, r) -> str:
    """The JSON reports, one per line, that models with a rank `r` above all
    their other ranks get: two DSL models (one completes, one deadlocks) from
    `check` and from a strict `stream`, which must agree; two abstract API
    models from `check` and from an `Engine` stream; and violations that
    name `r`, as a third member, off its endpoints or lonely."""
    reports = []
    path = tmp_path / "m.dsl"
    for body, tokens in [
        ("send tag=1 to {r}; recv tag=2 from {r};", "1,0,{r} 2,{r},0"),
        ("recv tag=2 from {r}; send tag=1 to {r};", "2,{r},0 1,0,{r}"),
    ]:
        path.write_text(f"process 0 {{ {body.format(r=r)} }}\nprocess {r} {{ recv tag=1 from 0; send tag=2 to 0; }}\n")
        events = f"append 0 {tokens.format(r=r)}\nappend {r} 1,0,{r} 2,{r},0\nclose 0\nclose {r}\n"
        code, out, _ = run_cli(["check", str(path), "--format", "json"])
        streamed = run_cli(["stream", "--mode", "strict", "--format", "json"], events)
        keys = ("verdict", "blocked", "matchedPairs", "residual")
        assert streamed[0] == code and [json.loads(streamed[1])[k] for k in keys] == [json.loads(out)[k] for k in keys]
        reports.append(out)
    space = SignatureSpace(["a", "b"])
    for row in ([0, 1], [1, 0]):
        model = Model([Sequence(0, column=[0, 1]), Sequence(r, column=row)], Mode.ABSTRACT, space)
        engine = Engine(space)
        for seq in model.sequences:
            engine.append(seq.rank, seq.column)
            engine.close(seq.rank)
        assert engine.drain() == check(model)
        reports.append(json.dumps(build_report(check(model), space, messages=model.message_count)))
    for ranks in ([0, 3, r], [r, 0, 3], [r]):  # a third member, learned last or first; one member
        model = Model([Sequence(rank, column=[0]) for rank in ranks], Mode.ABSTRACT, SignatureSpace(["a"]))
        reports.append(json.dumps(build_report(check(model), model.space, messages=model.message_count)))
    for events in (f"append 3 1,0,{r}", f"append 0 1,0,{r}\nappend {r} 1,0,{r}\nappend 3 1,0,{r}", f"append {r} 1,0,{r}\nclose {r}"):
        reports.append(run_cli(["stream", "--format", "json"], events + "\n")[1])
    return "\n".join(reports)


@pytest.mark.parametrize("big", [2**31, 2**64 + 1], ids=["2**31", "2**64+1"])
def test_a_rank_past_a_c_long_gets_the_verdicts_of_a_small_one(tmp_path, big):
    # member ranks are kept as Python ints, so a rank that fits no C int or
    # long is judged as rank 7 is, in every front end
    small = _rank_reports(tmp_path, 7)
    assert _rank_reports(tmp_path, big).replace(str(big), "7") == small
    assert ['"verdict": "ok"', '"verdict": "deadlock"'] == re.findall(r'"verdict": "\w+"', small)[:2]
    assert small.count("occurs in 3 sequences") == 3 and small.count("endpoints are [0, 7]") == 1
    assert small.count("occurs in 1 sequence") == 2
