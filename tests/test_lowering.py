"""A parsed model checks exactly as the API-built model it was rendered from.

Every sequence is a signature column.  An API-built sequence gets its
column from its `MessageOccurrence`s when it is constructed, and in strict
mode its `Model` checks their roles once, when it is built, against the
space's entries.  Both kinds must give the same verdict, report and step
count, every consumer must name the violation that the in-order reference
kept here names, and no reordering of a strict model's sequences changes
whether it is legal.
"""
import gc
import itertools
import random
import tracemalloc

import pytest

from support import OrderedLegality, classify, model_from_tuples
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
        # in the same sequence
        (Model([Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(1, [MessageOccurrence(0, recv, a), MessageOccurrence(1, recv, Envelope(2, 0, 1))]),
                Sequence(2, column=[0, 1])], Mode.STRICT, SignatureSpace([a, Envelope(2, 0, 1)])),
         "occurs in 3 sequences, expected exactly 2"),
        # a bare column off its entry's endpoints, listed before every
        # occurrence that names that envelope
        (Model([Sequence(9, column=[0]), Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(1, [MessageOccurrence(0, recv, a)])], Mode.STRICT, SignatureSpace([a])),
         "occurs in sequences [9] but its envelope endpoints are [0, 1]"),
        # an occurrence whose envelope is not its signature's entry
        (Model([Sequence(0, [MessageOccurrence(0, send, a)]),
                Sequence(2, [MessageOccurrence(0, send, Envelope(9, 2, 3))])], Mode.STRICT, SignatureSpace([a])),
         "strict-mode occurrence at rank 2 pos 0 has an envelope other than its signature's entry in the space"),
        # a sequence's role violation wins over its own earlier member that is
        # both a third member and off its envelope's endpoints
        (_strict_model([(0, [(send, a), (recv, c)]), (1, [(recv, a)]), (2, [(unspecified, a), (recv, c)])]),
         "recv at rank 2 pos 1 but envelope destination is 0"),
    ]
    # a plain-tuple envelope or entry names the reason of its `Envelope` spelling
    for env, entry in ((a, a), (tuple(a), a), (a, tuple(a))):
        cases += [
            (Model([Sequence(5, [MessageOccurrence(0, send, env)]), Sequence(1, [MessageOccurrence(0, recv, env)])],
                   Mode.STRICT, SignatureSpace([entry])), "send at rank 5 pos 0 but envelope source is 0"),
            (Model([Sequence(0, [MessageOccurrence(0, send, env)]), Sequence(5, [MessageOccurrence(0, recv, env)])],
                   Mode.STRICT, SignatureSpace([entry])), "recv at rank 5 pos 0 but envelope destination is 1"),
        ]
    for model, message in cases:
        verdict = check(model)
        assert isinstance(verdict, Illegal), message
        assert verdict.reason.message == message
        assert validate_static(model) == verdict.reason
        assert cycle_check(model).verdict == verdict


def _reference_roles(model):
    """The first role violation of strict `model`'s API-built occurrences,
    in model order: each has an envelope equal to its signature's entry in
    the space, a send sits at that entry's source and a recv at its
    destination.  An occurrence of a signature outside the space is held to
    its own envelope."""
    entries = model.space.entries
    for seq in model.sequences:
        rank = seq.rank
        for pos, (sig, role, env) in enumerate(seq.occurrences or ()):
            entry = entries[sig] if sig in range(len(entries)) else env
            if env is None:
                message = f"strict-mode occurrence at rank {rank} pos {pos} has no envelope"
            elif tuple(env) != tuple(entry):
                message = f"strict-mode occurrence at rank {rank} pos {pos} has an envelope other than its signature's entry in the space"
            elif role is Role.SEND and rank != entry[1]:
                message = f"send at rank {rank} pos {pos} but envelope source is {entry[1]}"
            elif role is Role.RECV and rank != entry[2]:
                message = f"recv at rank {rank} pos {pos} but envelope destination is {entry[2]}"
            else:
                continue
            return IllegalReason(sig, (rank,), message)
    return None


def _reference_reason(model):
    """The model's first legality violation as the reference orders them: a
    role violation (strict mode, occurrences) first; then the first
    membership or endpoint violation when every column is added in model
    order, each member held to its signature's entry in the space; then the
    lowest lonely signature."""
    if model.mode is Mode.STRICT:
        reason = _reference_roles(model)
        if reason is not None:
            return reason
    legality = OrderedLegality(model.space, model.mode is Mode.STRICT)
    for seq in model.sequences:
        legality.add(seq.rank, list(seq.column))
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
    a wrong role or an envelope other than their signature's entry; some
    signatures have a member off the endpoints or a third member; a few
    occurrences have a signature outside the space; some sequences are bare
    columns, and the sequences come in a random order."""
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
    if rng.random() < 0.05:
        rank = rng.randrange(procs)
        env = Envelope(99, rank, (rank + 1) % procs)
        rows[rank].append(MessageOccurrence(rng.choice((-1, len(space) + 3)), Role.UNSPECIFIED, env))
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
    space = SignatureSpace([a])
    fixed = [
        # a bare column off the entry's endpoints, before or after the
        # occurrence that names the envelope
        (Model([Sequence(0, column=[0]), Sequence(1, [MessageOccurrence(0, send, a)])], Mode.STRICT, space),
         "occurs in sequences [0] but its envelope endpoints are [1, 2]"),
        (Model([Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(0, column=[0])], Mode.STRICT, space),
         "occurs in sequences [0, 1] but its envelope endpoints are [1, 2]"),
        # a third member after both endpoints is named as one
        (Model([Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(2, column=[0]), Sequence(3, column=[0])],
               Mode.STRICT, space), "occurs in 3 sequences, expected exactly 2"),
        # a send and a recv of one envelope
        (Model([Sequence(1, [MessageOccurrence(0, send, a)]), Sequence(2, [MessageOccurrence(0, recv, a)])],
               Mode.STRICT, space), None),
        # a role violation wins over an earlier sequence's membership violation
        (Model([Sequence(0, column=[1]), Sequence(1, [MessageOccurrence(1, send, a)]), Sequence(2, column=[1]),
                Sequence(3, [MessageOccurrence(0, recv, a)])], Mode.STRICT, SignatureSpace([a, a])),
         "recv at rank 3 pos 0 but envelope destination is 2"),
    ]
    for model, message in fixed:
        reference = _reference_reason(model)
        assert (reference and reference.message) == message
        assert _reasons(model) == [reference] * 4, message

    rng = random.Random(17)
    kinds = ("no envelope", "other than", "send at", "recv at", "occurs in 3", "occurs in 1", "endpoints are", "outside")
    seen = set()
    for _ in range(3000):
        model = _random_api_model(rng)
        reference = _reference_reason(model)
        assert _reasons(model) == [reference] * 4, model
        seen.add(next((kind for kind in kinds if reference and kind in reference.message), None))
    assert seen == {None, *kinds}  # legal models and every kind of violation occur


def test_a_strict_model_needs_a_space():
    with pytest.raises(ValueError, match="a strict model needs a signature space"):
        Model([Sequence(0, column=[0]), Sequence(1, column=[0])], Mode.STRICT, None)


def _trust_gaps():
    """Strict models that a first-envelope rule judged by their order or
    outside their space, each with the message of the violation it names."""
    send, recv, unspecified = Role.SEND, Role.RECV, Role.UNSPECIFIED
    a = Envelope(1, 0, 1)
    yield (Model([Sequence(5, column=[0]), Sequence(0, [MessageOccurrence(0, send, a)])], Mode.STRICT, SignatureSpace([a])),
           "occurs in sequences [5] but its envelope endpoints are [0, 1]")
    yield (Model([Sequence(0, [MessageOccurrence(0, send, a)]), Sequence(5, column=[0])], Mode.STRICT, SignatureSpace([a])),
           "occurs in sequences [0, 5] but its envelope endpoints are [0, 1]")
    # bare columns that no occurrence holds to their envelope
    yield (Model([Sequence(5, column=[0]), Sequence(7, column=[0])], Mode.STRICT, SignatureSpace([a])),
           "occurs in sequences [5] but its envelope endpoints are [0, 1]")
    # occurrences whose envelopes are not the space's, which a report would name
    rows = [(2, [(unspecified, Envelope(7, 2, 3), 0), (unspecified, Envelope(8, 3, 2), 1)]),
            (3, [(unspecified, Envelope(8, 3, 2), 1), (unspecified, Envelope(7, 2, 3), 0)])]
    yield (Model([Sequence(rank, [MessageOccurrence(sig, role, env) for role, env, sig in row]) for rank, row in rows],
                 Mode.STRICT, SignatureSpace([(1, 0, 1, 0), (2, 1, 0, 0)])),
           "strict-mode occurrence at rank 2 pos 0 has an envelope other than its signature's entry in the space")
    # a column signature outside the space, in either mode
    yield (Model([Sequence(0, column=[0, 5]), Sequence(1, [MessageOccurrence(0, recv, a), MessageOccurrence(5, recv, a)])],
                 Mode.STRICT, SignatureSpace([a])),
           "signature 5 at rank 0 is outside the signature space, range(1)")
    yield (Model([Sequence(0, column=[5]), Sequence(1, column=[5])], Mode.ABSTRACT, SignatureSpace(["a"])),
           "signature 5 at rank 0 is outside the signature space, range(1)")
    yield (Model([Sequence(0, column=[0, -1]), Sequence(1, column=[-1, 0])], Mode.ABSTRACT, SignatureSpace(["a"])),
           "signature -1 at rank 0 is outside the signature space, range(1)")


def test_trust_gaps_are_illegal_in_every_order_through_every_consumer():
    for model, message in _trust_gaps():
        reasons = _reasons(model)
        assert reasons[0] is not None and reasons[0].message == message
        assert reasons == [_reference_reason(model)] * 4, message
        for order in itertools.permutations(model.sequences):
            permuted = Model(order, model.mode, model.space)
            assert all(reason is not None for reason in _reasons(permuted)), order


def test_permuting_a_strict_api_models_sequences_keeps_its_verdict_kind():
    from test_model import _random_strict_model

    rng = random.Random(26)
    kinds = set()
    for make in (_random_api_model, _random_strict_model):
        for _ in range(400):
            model = make(rng)
            kind = classify(check(model))
            kinds.add(kind)
            sequences = list(model.sequences)
            for _ in range(3):
                rng.shuffle(sequences)
                permuted = Model(sequences, model.mode, model.space)
                assert classify(check(permuted)) == classify(cycle_check(permuted).verdict) == kind, sequences
                assert (validate_static(permuted) is None) == (kind != "illegal")
    assert kinds == {"ok", "deadlock", "illegal"}


def test_a_traced_model_cannot_be_changed_and_built_whole_names_the_reference_violation():
    # a built model's sequences are a tuple, fixed once its roles are
    # checked; a list that could be changed after construction would let
    # its columns and occurrences disagree with that check
    a, b = Envelope(1, 0, 1), Envelope(2, 0, 1)
    space = SignatureSpace()
    x, y = space.signature_for(a), space.signature_for(b)
    send, recv = Role.SEND, Role.RECV
    sends = Sequence(0, [MessageOccurrence(x, send, a), MessageOccurrence(y, send, b)])
    recvs = Sequence(1, [MessageOccurrence(x, recv, a), MessageOccurrence(y, recv, b)])
    model = Model([sends, recvs, Sequence(3, column=[y, x])], Mode.STRICT, space)
    assert model._role_violation is None
    assert validate_static(model).message == "occurs in 3 sequences, expected exactly 2"
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
    # signature's entry: the model keeps nothing per signature, since the
    # endpoint rule is judged by `Legality`, not at construction
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
    assert model._role_violation is None
    assert all(seq.column.itemsize == 4 for seq in model.sequences)
    # the columns' 4 B per occurrence plus a fixed cost per sequence (190-260 B
    # on Python 3.10-3.12: the Sequence, its array's header, a tuple slot);
    # a dict entry per signature would add about 2.6 MB, over 30 B per
    # occurrence here
    assert kept <= 4 * n + 400 * processes, (kept, kept / n)
