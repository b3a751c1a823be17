import gc
import random
import tracemalloc

import pytest

from support import abstract_model, classify, model_from_tuples, random_legal_abstract
from syncheck import (
    Deadlock,
    Illegal,
    NoDeadlock,
    StateCapExceeded,
    check,
    cycle_check,
    parse_abstract,
    parse_dsl,
    render_dsl,
    simulate_exhaustive,
    validate_static,
)
from syncheck import model as model_module
from syncheck.bench import GenSpec, generate
from syncheck.oracle import OrderNode


@pytest.mark.parametrize(
    "oracle", [check, cycle_check, simulate_exhaustive, validate_static], ids=lambda f: f.__name__
)
def test_traces_each_model_once(oracle, monkeypatch):
    # an API-built strict model's roles are checked once, when it is built;
    # the engine and the oracles read only its columns and that check
    traced = []
    role_violation = model_module._role_violation

    def counting(sequences, entries):
        traced.append(len(sequences))
        return role_violation(sequences, entries)

    monkeypatch.setattr(model_module, "_role_violation", counting)
    model = generate(GenSpec("ring", 5, 3, seed=0))
    assert traced == [5]
    result = oracle(model)
    assert traced == [5]
    if oracle is check:
        assert isinstance(result, Deadlock)
    elif oracle is cycle_check:
        assert isinstance(result.verdict, Deadlock) and len(result.witness) == 5
    elif oracle is simulate_exhaustive:
        assert isinstance(result.verdict, Deadlock)
    else:
        assert result is None  # legal


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

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_rejected(self, cap):
        with pytest.raises(ValueError, match=f"cap must be >= 1, got {cap}"):
            simulate_exhaustive(parse_abstract("a\na\n"), cap=cap)

    def test_cap_of_one_explores_the_initial_state(self):
        result = simulate_exhaustive(abstract_model("ab", "bc", "ca"), cap=1)
        assert isinstance(result.verdict, Deadlock)
        assert result.states_explored == 1

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
        assert result.witness == (
            OrderNode(0, ((0, 0), (2, 1))),
            OrderNode(1, ((0, 1), (1, 0))),
            OrderNode(2, ((1, 1), (2, 0))),
        )

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

    def test_a_wait_cycle_through_an_unpaired_occurrence_has_no_witness(self):
        # P0 waits on P1 for `a` and P1 on P0 for `b`, a two-rank wait cycle;
        # P0's order edges stop at its unpaired second `a`, so cycle_check
        # reports that occurrence and no witness
        model = parse_abstract("P0: aab\nP1: ba\n")
        verdict = check(model)
        assert [(b.rank, b.position, b.signature) for b in verdict.report.blocked] == [(0, 0, 0), (1, 0, 1)]
        result = cycle_check(model)
        assert result.verdict == verdict
        assert result.witness is None
        assert result.unpaired == ((0, 1),)

    def test_illegal_passes_through(self):
        result = cycle_check(abstract_model("a", "a", "a"))
        assert isinstance(result.verdict, Illegal)

    def test_partial_progress_before_cycle(self):
        # one pair completes, then the wait cycle of the paper example
        result = cycle_check(abstract_model("xab", "xbc", "ca"))
        assert isinstance(result.verdict, Deadlock)
        assert result.verdict.report.matched_pairs == 1
        assert result.witness == (
            OrderNode(1, ((0, 1), (2, 1))),
            OrderNode(2, ((0, 2), (1, 1))),
            OrderNode(3, ((1, 2), (2, 0))),
        )

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
                assert by_rank[rank].column[pos] == node.signature

    def test_matches_an_object_per_node_reference(self):
        rng = random.Random(59)
        models = [generate(GenSpec(pattern, 6, 9, seed=seed)) for pattern in ("ring", "random") for seed in range(8)]
        for _ in range(400):
            model = random_legal_abstract(rng, max_procs=6, max_events=20)
            models += [model, _perturbed(rng, model)]
        for model in models:
            result = cycle_check(model)
            deadlock, witness, unpaired = _reference_cycle_check(model)
            assert (isinstance(result.verdict, Deadlock), result.witness, result.unpaired) == (
                deadlock,
                witness,
                unpaired,
            )

    def test_ring_witness_is_a_valid_cycle(self):
        for processes in (3, 4, 7, 16, 64):
            for messages, seed in ((1, 0), (3, 1), (8, 2)):
                model = generate(GenSpec("ring", processes, messages, seed=seed))
                result = cycle_check(model)
                _assert_valid_witness(model, result)
                assert len(result.witness) == processes

    def test_perturbed_witnesses_are_valid_cycles(self):
        rng = random.Random(83)
        checked = with_unpaired = 0
        for _ in range(600):
            model = _perturbed(rng, random_legal_abstract(rng, max_procs=6, max_events=24))
            result = cycle_check(model)
            if result.witness is not None:
                _assert_valid_witness(model, result)
                checked += 1
                with_unpaired += bool(result.unpaired)
        assert checked >= 100
        assert with_unpaired >= 10


def _perturbed(rng, model):
    """The abstract model with one or two changes: an occurrence copied within
    its sequence (a count imbalance, so unpaired occurrences), or two
    neighbours swapped."""
    label = model.space.label_of
    rows = [[label(o.signature) for o in seq.occurrences] for seq in model.sequences]
    for _ in range(rng.randint(1, 2)):
        row = rng.choice([row for row in rows if row])
        if rng.random() < 0.5:
            row.insert(rng.randint(0, len(row)), rng.choice(row))
        elif len(row) > 1:
            pos = rng.randrange(len(row) - 1)
            row[pos], row[pos + 1] = row[pos + 1], row[pos]
    return model_from_tuples(rows)


def _reference_cycle_check(model):
    """`cycle_check` with one object per node and explicit successor lists:
    the same pairing, node order, Kahn and DFS order, for comparison."""
    occ = {}  # sig -> {rank: [positions]}
    for seq in model.sequences:
        for pos, sig in enumerate(seq.column):
            occ.setdefault(sig, {}).setdefault(seq.rank, []).append(pos)
    nodes, node_of, unpaired = [], {}, []
    for sig in sorted(occ):
        (ra, pa), (rb, pb) = sorted(occ[sig].items())
        for k in range(min(len(pa), len(pb))):
            node_of[ra, pa[k]] = node_of[rb, pb[k]] = len(nodes)
            nodes.append(OrderNode(sig, ((ra, pa[k]), (rb, pb[k]))))
        longer_rank, longer = (ra, pa) if len(pa) > len(pb) else (rb, pb)
        unpaired.extend((longer_rank, pos) for pos in longer[min(len(pa), len(pb)):])
    succ = [[] for _ in nodes]
    indeg = [0] * len(nodes)
    chains = {seq.rank: [node_of.get((seq.rank, pos)) for pos in range(len(seq))] for seq in model.sequences}
    for chain in chains.values():
        for a, b in zip(chain, chain[1:]):
            if a is not None:
                succ[a].append(b)
            if b is not None:
                indeg[b] += 1 if a is not None else 2  # behind an unpaired one: never ready
    ready = [i for i, d in enumerate(indeg) if d == 0]
    removed = set()
    while ready:
        u = ready.pop()
        removed.add(u)
        for v in succ[u]:
            if v is not None:
                indeg[v] -= 1
                if indeg[v] == 0:
                    ready.append(v)
    witness = None
    color = {}
    for root in range(len(nodes)):
        if root in removed or root in color or witness:
            continue
        path, stack = [root], [iter(succ[root])]
        color[root] = "grey"
        while stack and not witness:
            v = next((v for v in stack[-1] if v is not None and v not in removed and color.get(v) != "black"), None)
            if v is None:
                color[path.pop()] = "black"
                stack.pop()
            elif color.get(v) == "grey":
                witness = tuple(nodes[i] for i in path[path.index(v):])
            else:
                color[v] = "grey"
                path.append(v)
                stack.append(iter(succ[v]))
    deadlock = len(removed) < len(nodes) or bool(unpaired)
    return deadlock, witness, tuple(sorted(unpaired))


def _assert_valid_witness(model, result):
    """The witness is a wait cycle of the model's message-order graph,
    checked from the model alone."""
    columns = {seq.rank: list(seq.column) for seq in model.sequences}
    witness = result.witness
    assert isinstance(result.verdict, Deadlock) and witness
    assert len(set(witness)) == len(witness)
    for node in witness:
        (ra, pa), (rb, pb) = node.endpoints
        assert ra < rb
        assert columns[ra][pa] == columns[rb][pb] == node.signature
        # the k-th occurrence of the signature in both ranks
        assert columns[ra][:pa].count(node.signature) == columns[rb][:pb].count(node.signature)
    for u, v in zip(witness, witness[1:] + witness[:1]):
        assert any((rank, pos + 1) in v.endpoints for rank, pos in u.endpoints), (u, v)
    cursors = {entry.rank: entry.position for entry in result.verdict.report.blocked}
    for node in witness:
        for rank, pos in node.endpoints:
            assert rank in cursors and pos >= cursors[rank]


def _peak_bytes_per_occurrence(model):
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cycle_check(model)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / model.message_count


class TestCycleCheckMemory:
    """The graph is flat arrays: no Python object per occurrence or node."""

    def test_abstract_pairs_peak(self):
        # four pairs of ranks, each repeating its own two characters
        rows = [(("ab", "cd", "ef", "gh")[rank // 2] * 12_500) for rank in range(8)]
        model = parse_abstract("".join(f"P{rank}: {row}\n" for rank, row in enumerate(rows)))
        assert model.message_count == 200_000
        assert isinstance(cycle_check(model).verdict, NoDeadlock)
        assert _peak_bytes_per_occurrence(model) <= 22

    def test_dsl_random_peak(self):
        model = parse_dsl(render_dsl(generate(GenSpec("random", 64, 3125, seed=1))))
        assert model.message_count == 200_000
        assert _peak_bytes_per_occurrence(model) <= 136
