"""A parsed model checks exactly as the API-built model it was rendered from.

Every sequence is a signature column.  An API-built sequence gets its
column from its `MessageOccurrence`s when it is constructed, and in strict
mode its `Model` checks their roles once, when it is built.  Both kinds
must give the same verdict, report and step count, and every consumer must
name the violation that the in-order lowering kept here as a reference
names.
"""
import gc
import itertools
import random
import tracemalloc

import pytest

from support import OrderedLegality, model_from_tuples
from syncheck import (
    Envelope,
    Illegal,
    MessageOccurrence,
    Mode,
    Model,
    Role,
    Sequence,
    SignatureSpace,
    StateCapExceeded,
    check,
    check_with_engine,
    cycle_check,
    parse_dsl,
    render_dsl,
    simulate_exhaustive,
    validate_static,
)
from syncheck.bench import GenSpec, generate
from syncheck.model import IllegalReason
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
        assert all(seq.occurrences is None for seq in parsed.sequences)

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
    a, b, c = Envelope(1, 0, 1), Envelope(2, 1, 2), Envelope(2, 2, 0)
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
        # a third member off its signature's endpoints: membership is named
        (_strict_model([(0, [(send, a)]), (1, [(recv, a)]), (5, [(unspecified, a)])]),
         "occurs in 3 sequences, expected exactly 2"),
        # an off-endpoint member after a third member of an earlier signature
        # in the same sequence (the bare column meets `a` before its envelope)
        (Model([Sequence(9, column=[0]), Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(2, [MessageOccurrence(1, recv, Envelope(2, 0, 2))]),
                Sequence(1, [MessageOccurrence(0, recv, a), MessageOccurrence(1, unspecified, Envelope(2, 0, 2))])],
               Mode.STRICT, SignatureSpace()),
         "occurs in 3 sequences, expected exactly 2"),
        # one signature under two envelopes: its members are held to the first
        (Model([Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(2, [MessageOccurrence(0, send, Envelope(9, 2, 3))])], Mode.STRICT, SignatureSpace()),
         "occurs in sequences [0, 2] but its envelope endpoints are [0, 1]"),
        # a sequence's role violation wins over its own earlier member that is
        # both a third member and off its envelope's endpoints
        (_strict_model([(0, [(send, a), (recv, c)]), (1, [(recv, a)]), (2, [(unspecified, a), (recv, c)])]),
         "recv at rank 2 pos 1 but envelope destination is 0"),
    ]
    # a plain-tuple envelope names the reason of its `Envelope` spelling
    for env in (a, tuple(a)):
        cases += [
            (Model([Sequence(5, [MessageOccurrence(0, send, env)]), Sequence(1, [MessageOccurrence(0, recv, env)])],
                   Mode.STRICT, SignatureSpace()), "send at rank 5 pos 0 but envelope source is 0"),
            (Model([Sequence(0, [MessageOccurrence(0, send, env)]), Sequence(5, [MessageOccurrence(0, recv, env)])],
                   Mode.STRICT, SignatureSpace()), "recv at rank 5 pos 0 but envelope destination is 1"),
        ]
    for model, message in cases:
        verdict = check(model)
        assert isinstance(verdict, Illegal), message
        assert verdict.reason.message == message
        assert validate_static(model) == verdict.reason
        assert cycle_check(model).verdict == verdict


def _reference_roles(seq):
    """The strict role check of `seq`'s occurrences, as an in-order pass
    made it: the first violation, and the first envelope of each signature
    in order, up to that violation."""
    rank, envelopes = seq.rank, {}
    for pos, (sig, role, env) in enumerate(seq.occurrences):
        if env is None:
            message = f"strict-mode occurrence at rank {rank} pos {pos} has no envelope"
        elif role is Role.SEND and rank != env.source:
            message = f"send at rank {rank} pos {pos} but envelope source is {env.source}"
        elif role is Role.RECV and rank != env.destination:
            message = f"recv at rank {rank} pos {pos} but envelope destination is {env.destination}"
        else:
            envelopes.setdefault(sig, env)
            continue
        return IllegalReason(sig, (rank,), message), envelopes
    return None, envelopes


def _reference_reason(model):
    """The model's first legality violation, found by lowering each sequence
    in model order: its roles are checked (strict mode, occurrences) while no
    violation is known, and the first envelopes seen so far are the ones the
    endpoint rule reads when its signatures are added."""
    legality = OrderedLegality({})
    for seq in model.sequences:
        if seq.occurrences is None:
            signatures = seq.column
        else:
            signatures = [occ.signature for occ in seq.occurrences]
            if model.mode is Mode.STRICT and legality.violation is None:
                reason, envelopes = _reference_roles(seq)
                for sig, env in envelopes.items():
                    legality.endpoints.setdefault(sig, env)
                legality.violation = reason and (reason.signature, reason.ranks, reason.message)
        legality.add(seq.rank, signatures)
    reason = legality.finish()
    return reason and IllegalReason(*reason)


def _reasons(model):
    """The violation named by `validate_static`, `check`, `cycle_check` and
    `simulate_exhaustive`, each None for a legal model."""
    def reason(verdict):
        return verdict.reason if isinstance(verdict, Illegal) else None

    try:
        simulated = reason(simulate_exhaustive(model, cap=2000).verdict)
    except StateCapExceeded:  # an illegal model returns before it explores
        simulated = None
    return [validate_static(model), reason(check(model)), reason(cycle_check(model).verdict), simulated]


def _random_api_model(rng):
    """A strict API-built model whose members mostly send and receive at
    their envelope's endpoints.  Some occurrences have no role, no envelope,
    a wrong role or an envelope other than their signature's first; some
    signatures have a member off the endpoints or a third member; some
    sequences are bare columns, and the sequences come in a random order."""
    procs = rng.randint(2, 5)
    space = SignatureSpace()
    rows = [[] for _ in range(procs)]
    for tag in range(rng.randint(1, 10)):
        src, dst = rng.sample(range(procs), 2)
        env = Envelope(tag, src, dst)
        sig = space.signature_for(env)
        members = [(src, Role.SEND), (dst, Role.RECV)]
        if rng.random() < 0.1:
            members[rng.randrange(2)] = (rng.randrange(procs), Role.UNSPECIFIED)  # maybe off the endpoints
        if rng.random() < 0.1:
            members.append((rng.randrange(procs), rng.choice(list(Role))))  # maybe a third member
        for rank, role in members:
            occ_env, kind = env, rng.random()
            if kind < 0.04:
                occ_env = None
            elif kind < 0.08:
                role = Role.RECV if role is Role.SEND else Role.SEND  # maybe off its envelope
            elif kind < 0.2:
                other = rng.choice([r for r in range(procs) if r != rank] or [procs])
                occ_env = Envelope(100 + tag, rank, other)  # another envelope, with `rank` its source
                role = rng.choice((Role.SEND, Role.UNSPECIFIED))
            elif kind < 0.3:
                role = Role.UNSPECIFIED
            rows[rank].extend([MessageOccurrence(sig, role, occ_env)] * rng.randint(1, 2))
    for row in rows:
        for i in range(len(row)):
            j = rng.randint(i, min(i + 2, len(row) - 1))
            row[i], row[j] = row[j], row[i]
    bare = rng.random() < 0.4
    sequences = [
        Sequence(rank, column=[occ.signature for occ in row])
        if bare and rng.random() < 0.3
        else Sequence(rank, row)
        for rank, row in enumerate(rows)
    ]
    rng.shuffle(sequences)
    return Model(sequences, Mode.STRICT, space)


def test_every_consumer_names_the_violation_in_order_lowering_names():
    send, recv = Role.SEND, Role.RECV
    a = Envelope(1, 1, 2)
    fixed = [
        # a bare column meets the signature's first envelope only later, so
        # its rank is not held to that envelope's endpoints (legal) ...
        (Model([Sequence(0, column=[0]), Sequence(1, [MessageOccurrence(0, send, a)])], Mode.STRICT, None), None),
        # ... but after it, it is
        (Model([Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(0, column=[0])], Mode.STRICT, None),
         "occurs in sequences [0, 1] but its envelope endpoints are [1, 2]"),
        # a third member after both, so it is named, not the first column's rank
        (Model([Sequence(0, column=[0]), Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(3, column=[0])],
               Mode.STRICT, None), "occurs in 3 sequences, expected exactly 2"),
        # a send and a recv of one envelope, and a role violation behind a
        # membership one of an earlier sequence
        (Model([Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(2, [MessageOccurrence(0, recv, a)])],
               Mode.STRICT, None), None),
        (Model([Sequence(0, column=[1]), Sequence(1, [MessageOccurrence(1, send, a)]), Sequence(2, column=[1]),
                Sequence(3, [MessageOccurrence(0, recv, a)])], Mode.STRICT, None),
         "occurs in 3 sequences, expected exactly 2"),
    ]
    for model, message in fixed:
        reference = _reference_reason(model)
        assert (reference and reference.message) == message
        assert _reasons(model) == [reference] * 4, message

    rng = random.Random(17)
    kinds = ("no envelope", "send at", "recv at", "occurs in 3", "occurs in 1", "endpoints are")
    seen = set()
    for _ in range(3000):
        model = _random_api_model(rng)
        reference = _reference_reason(model)
        assert _reasons(model) == [reference] * 4, model
        seen.add(next((kind for kind in kinds if reference and kind in reference.message), None))
    assert seen == {None, *kinds}  # legal models and every kind of violation occur


def test_a_traced_model_cannot_be_changed_and_built_whole_names_the_reference_violation():
    # the model's trace names its sequence by index; a list that could be
    # changed after construction left the trace on another sequence, or past
    # the end of the list
    a, b = Envelope(1, 0, 1), Envelope(2, 0, 1)
    space = SignatureSpace()
    x, y = space.signature_for(a), space.signature_for(b)
    send, recv = Role.SEND, Role.RECV
    sends = Sequence(0, [MessageOccurrence(x, send, a), MessageOccurrence(y, send, b)])
    recvs = Sequence(1, [MessageOccurrence(x, recv, a), MessageOccurrence(y, recv, b)])
    model = Model([sends, recvs, Sequence(3, column=[y, x])], Mode.STRICT, space)
    assert model._trace[:3] == (2, None, 0)
    with pytest.raises(TypeError):
        model.sequences[2:] = [Sequence(3, column=[])]
    with pytest.raises(AttributeError):
        model.sequences.insert(0, Sequence(5, column=[]))
    assert [seq.rank for seq in model.sequences] == [0, 1, 3]
    cases = [
        ([sends, recvs, Sequence(3, column=[])], None),
        ([Sequence(5, column=[]), sends, recvs, Sequence(3, column=[y, x])], "occurs in 3 sequences, expected exactly 2"),
    ]
    for sequences, message in cases:
        whole = Model(sequences, Mode.STRICT, space)
        reference = _reference_reason(whole)
        assert (reference and reference.message) == message
        assert _reasons(whole) == [reference] * 4, message


def test_criterion_3_models_name_the_violation_in_order_lowering_names():
    strings = [""] + ["".join(t) for length in (1, 2, 3) for t in itertools.product("abc", repeat=length)]
    illegal = 0
    for nseq in (0, 1, 2, 3):
        for combo in itertools.product(strings, repeat=nseq):
            model = model_from_tuples(combo)
            reference = _reference_reason(model)
            assert _reasons(model) == [reference] * 4, combo
            illegal += reference is not None
    assert 0 < illegal < 1 + 40 + 40**2 + 40**3


def test_a_strict_api_model_keeps_its_columns_and_no_envelope_per_signature():
    # 8000 sequences of 12 sends and receives, each of 48000 envelopes its
    # signature's first: every member is an endpoint by its role, so the
    # model keeps nothing for the endpoint rule
    generated = generate(GenSpec("pairs", 8000, 12))
    rows = [(seq.rank, seq.occurrences) for seq in generated.sequences]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model = Model([Sequence(rank, occurrences) for rank, occurrences in rows], Mode.STRICT, generated.space)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    n, processes = model.message_count, len(model.sequences)
    assert (n, processes, len(model.space)) == (96_000, 8000, 48_000)
    assert model._trace is None
    assert all(seq.column.itemsize == 4 for seq in model.sequences)
    # the columns' 4 B per occurrence plus a fixed cost per sequence (190-260 B
    # on Python 3.10-3.12: the Sequence, its array's header, a tuple slot);
    # a dict entry per signature would add about 2.6 MB, over 30 B per
    # occurrence here
    assert kept <= 4 * n + 400 * processes, (kept, kept / n)
