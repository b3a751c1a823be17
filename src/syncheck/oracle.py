"""Independent ground-truth backends for differential testing.

`simulate_exhaustive` explores every interleaving of rendezvous transitions
over cursor vectors, memoized.  `cycle_check` pairs the k-th occurrence of
each signature in its two sequences, builds the message-order graph, and
looks for a directed cycle.  Both are deliberately simple; the matching
engine is checked against them, never the other way around.

`cycle_check` keeps its graph in flat integer arrays rather than an object
per node: one element id per occurrence, laid out sequence after sequence,
and per node the two slots after its endpoints and one in-degree byte.  The
order edges are implicit (a node's successors are the elements after its
endpoints), so the check is linear in the occurrences, apart from one sort
of the distinct signatures, and makes no Python object per occurrence or
node; only the nodes of a witness become `OrderNode`s.
"""
from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, deque
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import List, Optional, Tuple

from .model import Deadlock, Illegal, Model, NoDeadlock, Verdict, deadlock_report, validate_static

_BOUNDARY = -2  # `cycle_check`'s slot before each sequence and after the last
_UNPAIRED = -1  # `cycle_check`'s element of an occurrence with no partner


class StateCapExceeded(Exception):
    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"state cap of {cap} cursor vectors exceeded")


@dataclass(frozen=True)
class SimulationResult:
    verdict: Verdict
    confluence_agreed: bool
    states_explored: int


def simulate_exhaustive(model: Model, cap: int = 10**6) -> SimulationResult:
    """Exhaustive interleaving simulation of synchronous rendezvous semantics.

    NoDeadlock iff some maximal schedule consumes everything; the confluence
    flag records whether all maximal schedules agreed on that outcome.
    `cap` bounds the cursor vectors visited and must be at least 1.
    """
    if cap < 1:
        raise ValueError(f"cap must be >= 1, got {cap}")
    reason = validate_static(model)
    if reason is not None:
        return SimulationResult(Illegal(reason), True, 0)

    seqs = model.sequences
    sigs = [seq.column for seq in seqs]
    lengths = [len(x) for x in sigs]
    total = sum(lengths)

    initial = tuple(0 for _ in seqs)
    visited = {initial}
    stack = [initial]
    success_terminal = False
    stuck_terminal: Optional[Tuple[int, ...]] = None
    while stack:
        state = stack.pop()
        # enabled transitions: any two heads with equal signature
        heads: dict = {}
        successors = []
        for i, cur in enumerate(state):
            if cur >= lengths[i]:
                continue
            sig = sigs[i][cur]
            for j in heads.get(sig, ()):
                nxt = list(state)
                nxt[i] += 1
                nxt[j] += 1
                successors.append(tuple(nxt))
            heads.setdefault(sig, []).append(i)
        if not successors:
            if sum(state) == total:
                success_terminal = True
            elif stuck_terminal is None:
                stuck_terminal = state
            continue
        for nxt in successors:
            if nxt not in visited:
                if len(visited) >= cap:
                    raise StateCapExceeded(cap)
                visited.add(nxt)
                stack.append(nxt)

    if success_terminal:
        verdict: Verdict = NoDeadlock()
    else:
        assert stuck_terminal is not None
        columns = {seq.rank: seq.column for seq in seqs}
        cursors = {seq.rank: cur for seq, cur in zip(seqs, stuck_terminal)}
        verdict = Deadlock(deadlock_report(columns, cursors, model.space))
    confluent = not (success_terminal and stuck_terminal is not None)
    return SimulationResult(verdict, confluent, len(visited))


@dataclass(frozen=True)
class OrderNode:
    """One matched occurrence pair: the k-th occurrence of a signature in each
    of its two sequences."""

    signature: int
    endpoints: tuple  # ((rank, position), (rank, position))


@dataclass(frozen=True)
class CycleCheckResult:
    verdict: Verdict
    witness: Optional[Tuple[OrderNode, ...]]  # a directed wait cycle, if any
    unpaired: tuple  # ((rank, position), ...) occurrences with no partner


def cycle_check(model: Model) -> CycleCheckResult:
    """Message-order-graph baseline: deadlock iff unpairable residue or a cycle.

    The k-th occurrence of a signature in one of its sequences pairs with
    the k-th in the other, as one node; node ids run through the signatures
    in ascending order, a signature's k-th pair taking its base id + k.  The
    graph lives in flat integer arrays: `elem` holds one element id per
    occurrence, sequence after sequence in model order, each sequence after
    a `_BOUNDARY` slot and an occurrence without partner `_UNPAIRED`.  A
    node's successors are the elements after its two endpoints, so the
    order edges need no storage: `lo` and `hi` hold, for each node, the slot
    after its endpoint in its earlier and in its later sequence.  Kahn's
    algorithm removes nodes with no waiting predecessor; a depth-first
    search over what is left finds a cycle.  Time and memory are linear in
    the occurrences, apart from sorting the distinct signatures, and only
    the nodes of the witness become `OrderNode`s.
    """
    reason = validate_static(model)
    if reason is not None:
        return CycleCheckResult(Illegal(reason), None, ())

    seqs = model.sequences
    columns = [seq.column for seq in seqs]

    # pairs of each signature: the lower of its two counts, 1 when it occurs
    # once in either member
    pairs: dict = {}
    repeats = []  # per sequence: does a signature occur more than once
    for column in columns:
        counts = Counter(column)
        repeats.append(len(counts) < len(column))
        if repeats[-1]:
            for sig, count in counts.items():
                pairs[sig] = min(pairs.get(sig, count), count)
        else:
            pairs.update(dict.fromkeys(counts, 1))
    sigs = sorted(pairs)
    base = dict(zip(sigs, accumulate(map(pairs.__getitem__, sigs), initial=0)))
    n_nodes = sum(pairs.values())

    elem = array("l", [_BOUNDARY])
    starts: List[int] = []
    for column, repeated in zip(columns, repeats):
        starts.append(len(elem))
        if repeated:
            # the k-th occurrence of sig here is node base + k, unpaired past its pairs
            ids = {sig: iter(range(base[sig], base[sig] + pairs[sig])) for sig in dict.fromkeys(column)}
            elem.extend(map(next, map(ids.__getitem__, column), repeat(_UNPAIRED)))
        else:
            elem.extend(map(base.__getitem__, column))
        elem.append(_BOUNDARY)

    def locate(g: int) -> Tuple[int, int]:
        """The sequence index and position of slot `g` of `elem`."""
        i = bisect_right(starts, g) - 1
        return i, g - starts[i]

    unpaired: List[Tuple[int, int]] = []
    g = 0
    for _ in range(elem.count(_UNPAIRED)):
        g = elem.index(_UNPAIRED, g + 1)
        i, pos = locate(g)
        unpaired.append((seqs[i].rank, pos))

    # the slot after each node's endpoint, in its earlier sequence (`lo`) and
    # its later one (`hi`): the slot of its successor there.  The last write
    # of a node's id wins, so writing every slot's successor slot forwards
    # leaves the later one, and backwards the earlier one.  Two spare slots
    # at the end take the writes of the negative sentinels.
    lo = array("l", [0]) * (n_nodes + 2)
    hi = array("l", [0]) * (n_nodes + 2)
    after = range(1, len(elem) + 1)
    deque(map(hi.__setitem__, elem, after), maxlen=0)
    deque(map(lo.__setitem__, reversed(elem), reversed(after)), maxlen=0)
    sides = (lo, hi)

    # Kahn: `indeg` counts a node's predecessors not yet removed.  An unpaired
    # occurrence is never removed, so everything behind it stays stuck, and
    # a node is removed exactly when its count reaches 0.
    indeg = bytearray([2]) * n_nodes
    ready = []
    for start in starts:
        e = elem[start]
        if e >= 0:
            indeg[e] -= 1
            if not indeg[e]:
                ready.append(e)
    while ready:
        u = ready.pop()
        for side in sides:
            v = elem[side[u]]
            if v >= 0:
                indeg[v] -= 1
                if not indeg[v]:
                    ready.append(v)

    if indeg.count(0) == n_nodes and not unpaired:
        return CycleCheckResult(NoDeadlock(), None, ())

    # deadlock: derive per-sequence cursors (removals form a per-sequence prefix)
    cursors = {}
    for seq, start in zip(seqs, starts):
        g = start
        while elem[g] >= 0 and not indeg[elem[g]]:
            g += 1
        cursors[seq.rank] = g - start
    report = deadlock_report({seq.rank: seq.column for seq in seqs}, cursors, model.space)

    def order_node(u: int) -> OrderNode:
        endpoints = []
        for side in sides:
            i, pos = locate(side[u] - 1)
            endpoints.append((seqs[i].rank, pos))
        return OrderNode(columns[i][pos], tuple(sorted(endpoints)))

    witness = _find_cycle(elem, sides, indeg)
    witness_nodes = tuple(map(order_node, witness)) if witness else None
    return CycleCheckResult(Deadlock(report), witness_nodes, tuple(sorted(unpaired)))


def _find_cycle(elem: array, sides: tuple, indeg: bytearray) -> Optional[List[int]]:
    """Iterative DFS over the nodes Kahn left (nonzero `indeg`); returns one
    cycle's nodes.  Roots go in node-id order and a node's successors in
    model order: the element in its `lo` slot, then the one in its `hi` slot."""
    WHITE, GREY, BLACK = 0, 1, 2
    n_nodes = len(indeg)
    color = bytearray(n_nodes)
    tried = bytearray(n_nodes)  # successors of a node already looked at
    for root in range(n_nodes):
        if color[root] != WHITE or not indeg[root]:
            continue
        color[root] = GREY
        path = [root]
        while path:
            node = path[-1]
            k = tried[node]
            if k == len(sides):
                color[node] = BLACK
                path.pop()
                continue
            tried[node] = k + 1
            nxt = elem[sides[k][node]]
            if nxt < 0 or not indeg[nxt]:
                continue
            if color[nxt] == GREY:
                return path[path.index(nxt):]
            if color[nxt] == WHITE:
                color[nxt] = GREY
                path.append(nxt)
    return None
