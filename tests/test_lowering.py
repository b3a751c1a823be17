"""A parsed model checks exactly as the API-built model it was rendered from.

Parsed models are signature columns; API-built models list
`MessageOccurrence`s, lowered (and, in strict mode, role-checked) by
`model.lower`.  Both must give the same verdict, report and step count.
"""
import random

from syncheck import (
    Envelope,
    Illegal,
    MessageOccurrence,
    Mode,
    Model,
    Role,
    Sequence,
    SignatureSpace,
    check,
    check_with_engine,
    cycle_check,
    parse_dsl,
    render_dsl,
    validate_static,
)
from syncheck.bench import GenSpec, generate
from syncheck.report import build_report, to_json


def _strict_model(ranked_rows) -> Model:
    """An API-built strict model of (rank, [(role, envelope), ...]) rows, its
    signatures numbered in reading order, as a parser numbers them."""
    space = SignatureSpace()
    sequences = [
        Sequence(rank, [MessageOccurrence(space.signature_for(env), role, env) for role, env in row])
        for rank, row in ranked_rows
    ]
    return Model(sequences, Mode.STRICT, space)


def _perturbed(rng, model):
    """Rows of a generated model, unchanged, with two adjacent occurrences of
    one rank swapped, or with one occurrence dropped."""
    rows = [[(o.role, o.envelope) for o in seq.occurrences] for seq in model.sequences]
    kind = rng.choice(("none", "swap", "drop"))
    row = rng.choice([row for row in rows if len(row) > 1])
    pos = rng.randrange(len(row) - 1)
    if kind == "swap":
        row[pos], row[pos + 1] = row[pos + 1], row[pos]
    elif kind == "drop":
        del row[pos]
    return kind, rows


def _report(model):
    verdict, engine = check_with_engine(model)
    report = build_report(verdict, model.space, messages=model.message_count, steps=engine.steps)
    return verdict, to_json(report)


def test_parsed_model_checks_as_the_api_built_one():
    rng = random.Random(61)
    kinds = {}
    for seed in range(120):
        pattern = ("pairs", "ring", "random")[seed % 3]
        processes = {"pairs": 2 * rng.randint(1, 3), "ring": rng.randint(3, 5), "random": rng.randint(2, 6)}[pattern]
        kind, rows = _perturbed(rng, generate(GenSpec(pattern, processes, rng.randint(2, 12), seed=seed)))
        built = _strict_model(enumerate(rows))
        parsed = parse_dsl(render_dsl(built))
        assert all(seq.column is not None and seq.occurrences is None for seq in parsed.sequences)

        verdict, report = _report(built)
        assert _report(parsed) == (verdict, report), rows
        assert check(parsed) == check(built)
        ours, theirs = cycle_check(parsed), cycle_check(built)
        assert (ours.verdict, ours.witness, ours.unpaired) == (theirs.verdict, theirs.witness, theirs.unpaired)
        outcome = type(verdict).__name__
        kinds[kind, outcome] = kinds.get((kind, outcome), 0) + 1
    # every perturbation occurs, and a dropped occurrence leaves a one-member signature
    assert {kind for kind, _ in kinds} == {"none", "swap", "drop"}
    assert {outcome for kind, outcome in kinds if kind == "drop"} == {"Illegal"}
    assert {"NoDeadlock", "Deadlock"} <= {outcome for kind, outcome in kinds if kind != "drop"}


def test_role_inconsistent_api_model_is_illegal_through_check_and_validate_static():
    a, b = Envelope(1, 0, 1), Envelope(2, 1, 2)
    send, recv, unspecified = Role.SEND, Role.RECV, Role.UNSPECIFIED
    cases = [
        # a send off its envelope's source, a recv off its destination
        (_strict_model([(0, [(send, a)]), (1, [(send, a), (send, b)]), (2, [(recv, b)])]),
         "send at rank 1 pos 0 but envelope source is 0"),
        (_strict_model([(0, [(send, a)]), (1, [(recv, a), (recv, b)]), (2, [(recv, b)])]),
         "recv at rank 1 pos 1 but envelope destination is 2"),
        # an unspecified role off the envelope's endpoints
        (_strict_model([(0, [(send, a)]), (5, [(unspecified, a)])]),
         "occurs in sequences [0, 5] but its envelope endpoints are [0, 1]"),
        # a third member met before a later signature's wrong endpoint, and after
        (_strict_model([(0, [(send, a)]), (1, [(recv, a)]), (2, [(unspecified, a), (unspecified, b)])]),
         "occurs in 3 sequences, expected exactly 2"),
        (_strict_model([(0, [(send, a)]), (1, [(recv, a)]), (7, [(unspecified, b), (unspecified, a)])]),
         "occurs in sequences [7] but its envelope endpoints are [1, 2]"),
        (Model([Sequence(0, [MessageOccurrence(0, send)])], Mode.STRICT, SignatureSpace()),
         "strict-mode occurrence at rank 0 pos 0 has no envelope"),
        # an off-endpoint member met before a misplaced send of the same sequence
        (_strict_model([(0, [(send, a)]), (5, [(unspecified, a), (send, b)]), (2, [(recv, b)])]),
         "send at rank 5 pos 1 but envelope source is 1"),
        # one signature under two envelopes: its members are held to the first
        (Model([Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(2, [MessageOccurrence(0, send, Envelope(9, 2, 3))])], Mode.STRICT, SignatureSpace()),
         "occurs in sequences [0, 2] but its envelope endpoints are [0, 1]"),
    ]
    for model, message in cases:
        verdict = check(model)
        assert isinstance(verdict, Illegal), message
        assert verdict.reason.message == message
        assert validate_static(model) == verdict.reason
        assert cycle_check(model).verdict == verdict
