"""Independent ground-truth backends for differential testing.

`simulate_exhaustive` explores every interleaving of rendezvous transitions
over cursor vectors, memoized.  `cycle_check` pairs the k-th occurrence of
each signature in its two sequences, builds the message-order graph, and
looks for a directed cycle.  Both are deliberately simple; the matching
engine is checked against them, never the other way around.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

from .model import Deadlock, Illegal, Model, NoDeadlock, deadlock_report, validate_static

Verdict = Union[NoDeadlock, Deadlock, Illegal]


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
    """
    reason = validate_static(model)
    if reason is not None:
        return SimulationResult(Illegal(reason), True, 0)

    seqs = model.sequences
    sigs = [s.signatures for s in seqs]
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
        columns = {seq.rank: column for seq, column in zip(seqs, sigs)}
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
    """Message-order-graph baseline: deadlock iff unpairable residue or a cycle."""
    reason = validate_static(model)
    if reason is not None:
        return CycleCheckResult(Illegal(reason), None, ())

    # k-th occurrence of a signature pairs with the k-th in the other sequence
    occ_by_sig: dict = {}  # sig -> {rank: [positions]}
    for seq in model.sequences:
        for pos, sig in enumerate(seq.signatures):
            occ_by_sig.setdefault(sig, {}).setdefault(seq.rank, []).append(pos)

    nodes: List[OrderNode] = []
    node_of: dict = {}  # (rank, position) -> element id; paired nodes only
    unpaired: List[Tuple[int, int]] = []
    for sig in sorted(occ_by_sig):
        by_rank = occ_by_sig[sig]
        (ra, pa), (rb, pb) = sorted(by_rank.items())
        for k in range(min(len(pa), len(pb))):
            nid = len(nodes)
            nodes.append(OrderNode(sig, ((ra, pa[k]), (rb, pb[k]))))
            node_of[(ra, pa[k])] = nid
            node_of[(rb, pb[k])] = nid
        longer_rank, longer = (ra, pa) if len(pa) > len(pb) else (rb, pb)
        for k in range(min(len(pa), len(pb)), max(len(pa), len(pb))):
            unpaired.append((longer_rank, longer[k]))

    # element space: real nodes, then one pseudo-element per unpaired occurrence
    n_nodes = len(nodes)
    pseudo_of = {occ: n_nodes + i for i, occ in enumerate(unpaired)}
    n_elems = n_nodes + len(unpaired)
    succ: List[List[int]] = [[] for _ in range(n_elems)]
    indeg = [0] * n_elems

    def elem(rank: int, pos: int) -> int:
        nid = node_of.get((rank, pos))
        return nid if nid is not None else pseudo_of[(rank, pos)]

    elems_by_seq: dict = {}
    for seq in model.sequences:
        chain = [elem(seq.rank, pos) for pos in range(len(seq))]
        elems_by_seq[seq.rank] = chain
        for a, b in zip(chain, chain[1:]):
            succ[a].append(b)
            indeg[b] += 1

    # Kahn over real nodes; pseudo-elements are never ready, so everything
    # behind an unpairable occurrence stays stuck
    ready = deque(i for i in range(n_nodes) if indeg[i] == 0)
    removed = [False] * n_elems
    matched = 0
    while ready:
        nid = ready.popleft()
        if removed[nid]:
            continue
        removed[nid] = True
        matched += 1
        for b in succ[nid]:
            indeg[b] -= 1
            if indeg[b] == 0 and b < n_nodes:
                ready.append(b)

    if matched == n_nodes and not unpaired:
        return CycleCheckResult(NoDeadlock(), None, ())

    # deadlock: derive per-sequence cursors (removals form a per-sequence prefix)
    cursors = {}
    for rank, chain in elems_by_seq.items():
        cur = 0
        while cur < len(chain) and removed[chain[cur]]:
            cur += 1
        cursors[rank] = cur
    columns = {seq.rank: seq.signatures for seq in model.sequences}
    report = deadlock_report(columns, cursors, model.space)
    witness = _find_cycle(n_nodes, succ, removed)
    witness_nodes = tuple(nodes[i] for i in witness) if witness else None
    return CycleCheckResult(Deadlock(report), witness_nodes, tuple(sorted(unpaired)))


def _find_cycle(n_nodes: int, succ: List[List[int]], removed: List[bool]) -> Optional[List[int]]:
    """Iterative DFS over the surviving real nodes; returns one cycle's nodes."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = [WHITE] * n_nodes
    for root in range(n_nodes):
        if color[root] != WHITE or removed[root]:
            continue
        path: List[int] = []
        stack: List[Tuple[int, int]] = [(root, 0)]
        color[root] = GREY
        path.append(root)
        while stack:
            node, idx = stack[-1]
            advanced = False
            for k in range(idx, len(succ[node])):
                nxt = succ[node][k]
                if nxt >= n_nodes or removed[nxt]:
                    continue
                stack[-1] = (node, k + 1)
                if color[nxt] == GREY:
                    return path[path.index(nxt):]
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    path.append(nxt)
                    stack.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None
