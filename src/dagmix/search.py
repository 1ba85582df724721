"""Greedy per-component DAG search and equivalence-class utilities.

Because the criterion factors into per-component per-node terms, each
component is searched independently and a move only touches the terms of
the nodes whose parent sets change (Chickering 2002).  A search keeps its
state from one move to the next: the arc and reachability matrices and the
legality masks are updated from the state before (an added arc joins two
sets of the closure, after Italiano 1986), and the family terms are kept
per variable set, so a step reads only the terms its changed nodes and
newly legal moves need.  Equivalence-aware comparison goes through
completed partially directed graphs (compelled arcs directed, reversible
arcs undirected).  Search reads a ``MixtureStats`` as one triple per
Gaussian component, zipped with the structures, under one Normal-Wishart
prior.  Internal: input is validated where it enters the package (see its
docstring).  A search state is a plain tuple of parent sets, carried with
its matrices (``_Graph``); only a search's result is built as a
``DagStructure``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .bayes import FamilyMarginals, NormalWishart, local_score, node_families
from .errors import DimensionMismatch
from .model import DagStructure, _topological_order
from .stats import MixtureStats, SuffStats

SCORE_EPS = 1e-9

# One parent set per node.  A state is reached only by legal moves from a
# DagStructure, which its constructor checked, so every state is a DAG.
_Parents = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ArcMove:
    kind: str  # add | delete | reverse
    source: int
    target: int
    component: int = 0


@dataclass(frozen=True)
class SearchStep:
    """One accepted move with its gain and the resulting total score.

    ``sideways`` marks covered-edge reversals taken while escaping a local
    maximum; they stay within the current equivalence class (gain ~ 0) and
    are only kept when a strictly improving move follows.
    """

    move: ArcMove
    gain: float
    total: float
    sideways: bool = False


def _closure(arc: np.ndarray) -> np.ndarray:
    """The transitive closure of a boolean relation, by repeated squaring of
    its 0/1 float matrix, which each round doubles the path length covered
    and is exact."""
    reach = arc.astype(float)
    while True:
        longer = np.minimum(reach + reach @ reach, 1.0)
        if (longer == reach).all():
            return reach > 0
        reach = longer


class _Graph:
    """A search state: its parent sets, its search's parent cap and four
    boolean matrices, row v for node v.  ``arc[v, u]`` iff u -> v, so row v
    marks the parents of v; ``reach[v, u]`` iff a path u ~> v of one or
    more arcs exists, so row v marks the ancestors of v; ``add`` and
    ``reverse`` mark the legal adds and reversals of u -> v under the cap
    (``_legal``).  A state reached by a move is built from the state before
    it (``moved``)."""

    __slots__ = ("parents", "cap", "arc", "reach", "add", "reverse")

    def __init__(self, parents: _Parents, cap: int | None, arc: np.ndarray,
                 reach: np.ndarray, masks: tuple[np.ndarray, np.ndarray] | None = None):
        self.parents, self.cap, self.arc, self.reach = parents, cap, arc, reach
        self.add, self.reverse = _legal(self) if masks is None else masks

    @classmethod
    def of(cls, parents: _Parents, cap: int | None = None) -> _Graph:
        n = len(parents)
        arc = np.zeros((n, n), dtype=bool)
        for child, ps in enumerate(parents):
            arc[child, list(ps)] = True
        return cls(parents, cap, arc, _closure(arc))

    def moved(self, move: ArcMove) -> _Graph:
        """The state after a legal move on u -> v.

        An add gives every node that v reaches, and v, the ancestors of u
        and u itself.  That forbids adding an arc back from the first set
        to the second, and reversing any arc from the second to the first
        but u -> v, which stays reversible iff u did not reach v before;
        and once v holds the cap, nothing may grow its parent set.
        Reversing a covered arc changes only columns u and v of ``reach``:
        v now reaches what u reached, less v, plus u, and u reaches its
        remaining children and what they reach.  A delete, or a reversal
        that is not covered, recomputes the closure.  Every move but an add
        reads its masks off the new matrices."""
        u, v = move.source, move.target
        parents = apply_move(self.parents, move)
        arc, reach = self.arc.copy(), self.reach.copy()
        arc[v, u] = move.kind == "add"
        if move.kind == "add":
            below, above = reach[:, v].copy(), reach[u].copy()
            below[v] = above[u] = True
            joined = below[:, None] & above
            reach |= joined
            add, reverse = self.add & ~joined.T, self.reverse & ~joined
            add[v, u] = False
            cap = self.cap
            reverse[v, u] = not self.reach[v, u] and (cap is None or len(parents[u]) < cap)
            if cap is not None and len(parents[v]) >= cap:
                add[v] = False
                reverse[:, v] = False
            return _Graph(parents, cap, arc, reach, (add, reverse))
        if move.kind == "reverse":
            arc[u, v] = True
            if set(self.parents[v]) - {u} == set(self.parents[u]):
                reach[:, v] = reach[:, u]
                reach[v, v], reach[u, v] = False, True
                children = arc[:, u]
                reach[:, u] = children | reach[:, children].any(axis=1)
                return _Graph(parents, self.cap, arc, reach)
        return _Graph(parents, self.cap, arc, _closure(arc))


def _legal(graph: _Graph) -> tuple[np.ndarray, np.ndarray]:
    """(add, reverse): n x n masks, entry [v, u] for the move on u -> v, so
    row v lists the moves that rewrite the parents of v.  Adding u -> v is
    legal iff v cannot reach u, and reversing u -> v is legal iff no path
    u ~> v of two or more arcs exists, i.e. iff (arc @ reach)[v, u] is zero
    (such a path cannot run through u -> v itself without a cycle).  Under
    the cap a move is also illegal when the parent set it grows (the
    target's for an add, the source's for a reversal) already holds the
    cap; a delete, legal wherever ``arc`` is set, is never capped."""
    arc = graph.arc
    add = ~(arc | graph.reach.T)
    add.ravel()[:: len(add) + 1] = False
    reverse = arc & (arc.astype(float) @ graph.reach.astype(float) == 0)
    if graph.cap is not None:
        grows = np.fromiter(map(len, graph.parents), int, len(add)) < graph.cap
        add &= grows[:, None]
        reverse &= grows
    return add, reverse


def neighbors(parents: _Parents) -> list[ArcMove]:
    """All single-arc moves whose result is acyclic, in (source, target)
    order with a delete before the reverse of the same arc."""
    graph = _Graph.of(parents)
    add, delete, reverse = graph.add.T, graph.arc.T, graph.reverse.T
    sources, targets = np.nonzero(add | delete)
    has_arc, reversible = delete.tolist(), reverse.tolist()
    moves = []
    for u, v in zip(sources.tolist(), targets.tolist()):
        if has_arc[u][v]:
            moves.append(ArcMove("delete", u, v))
            if reversible[u][v]:
                moves.append(ArcMove("reverse", u, v))
        else:
            moves.append(ArcMove("add", u, v))
    return moves


def _new_parents(
    parents: _Parents, move: ArcMove
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The (node, new parent set) pairs a move rewrites: the target first,
    then the source for a reversal.  Every other node keeps its parents, so
    these are the only family terms the move rescores."""
    u, v = move.source, move.target
    if move.kind == "add":
        return ((v, parents[v] + (u,)),)
    at = parents[v].index(u)
    trimmed = parents[v][:at] + parents[v][at + 1:]
    if move.kind == "delete":
        return ((v, trimmed),)
    return ((v, trimmed), (u, parents[u] + (v,)))


def apply_move(parents: _Parents, move: ArcMove) -> _Parents:
    out = list(parents)
    for node, ps in _new_parents(parents, move):
        out[node] = tuple(sorted(ps))
    return tuple(out)


class _ScoreCache:
    """The set terms of one component's search, over one ``FamilyMarginals``,
    kept from one scored state to the next.

    With F(Y) the family marginal of variable set Y (``FamilyMarginals``
    scores the empty set 0), node v with parents P scores F(v + P) - F(P).
    A row R(Y)[u] = F(Y toggled at u) is kept per sorted set Y and filled
    only where a move reads it; a filled entry never changes, so a state
    that returns to a parent set, or the members of an equivalence class,
    read the terms already computed.  Node v with parents P reads two rows:
    R(P + v), whose entry v is F(P), and R(P), whose entry v is F(v + P).
    Row w is R({w}), so the first n rows hold each pair family F({w, u})
    twice, at [w, u] and [u, w]: it is requested once, at [min, max], and
    copied across, until every pair family is in.
    """

    def __init__(self, prior: NormalWishart, t: SuffStats):
        n = t.dim
        self.marginals = FamilyMarginals(prior, t)
        self._store = np.full((2 * n, n), np.nan)  # one row R(Y) per key
        self._keys: list[tuple[int, ...]] = []
        self._index: dict[tuple[int, ...], int] = {}
        self._parents: tuple[tuple[int, ...] | None, ...] = (None,) * n
        self._ids = np.zeros((2, n), dtype=np.intp)
        for v in range(n):
            self._row((v,))
        self._pairs_open = True  # until every pair family is in the store

    def _row(self, key: tuple[int, ...]) -> int:
        at = self._index.get(key)
        if at is None:
            at = self._index[key] = len(self._keys)
            self._keys.append(key)
            if at == len(self._store):
                self._store = np.vstack([self._store, np.full_like(self._store, np.nan)])
        return at

    def terms(self, parents: _Parents, need: np.ndarray) -> np.ndarray:
        """The (2, n, n) terms of the state with these parent sets, target
        first: terms[0][v] = R(Pa(v) + v) and terms[1][v] = R(Pa(v)), so
        terms[:, v, u] is F(v + P') and F(P') for P' the parents of v with
        u toggled, and terms[:, v, v] is F(Pa(v)) and F(v + Pa(v)).  Every
        entry that ``need`` (target first, diagonal included) marks is
        filled, in one ``FamilyMarginals.fill``; the others may be NaN.
        Only the nodes whose parent tuple changed since the last call look
        up their rows again."""
        ids = self._ids
        # a move rebuilds only the parent tuples it rewrites
        for v in [v for v, (ps, old) in enumerate(zip(parents, self._parents)) if ps is not old]:
            base = tuple(sorted(parents[v]))
            ids[:, v] = self._row(tuple(sorted(base + (v,)))), self._row(base)
        self._parents = parents
        terms = self._store[ids]
        n = len(need)
        lack = np.flatnonzero(np.isnan(terms) & need)
        if len(lack):
            rows, us = ids.ravel()[lack // n], lack % n
            pairs = self._pairs_open and rows.min() < n
            if pairs:  # a pair family is asked for at [min, max] only
                swap = (rows < n) & (us < rows)
                rows, us = np.where(swap, us, rows), np.where(swap, rows, us)
            # one request per (row, entry), however many nodes share the row
            rows, us = zip(*dict.fromkeys(zip(rows.tolist(), us.tolist())))
            # R(Y)[u] reads Y less u, or Y plus u, which ``fill`` sorts
            self._store[rows, us] = self.marginals.fill([
                key + (u,) if u not in key else tuple(p for p in key if p != u)
                for key, u in zip(map(self._keys.__getitem__, rows), us)
            ])
            if pairs:
                block = self._store[:n]
                np.copyto(block, block.T, where=np.isnan(block))
                self._pairs_open = bool(np.isnan(block).any())
            terms = self._store[ids]
        return terms


_KINDS = ("delete", "reverse", "add")


def _move_gains(cache: _ScoreCache, graph: _Graph) -> tuple[list[np.ndarray], np.ndarray] | None:
    """(moves, gains), or None when no move is legal.  ``moves`` lists each
    kind's legal moves (see ``_legal``), in ``_KINDS`` order, as flat
    indices target * n + source in ascending order; ``gains`` holds their
    gains in the same order.  Only the terms that a legal move reads are
    computed.

    Each gain is one canonical sum of set terms: the F terms the move adds
    to the score summed in ascending order, minus the F terms it removes
    summed the same way.  An add or delete of u -> v gains
    (F(v + P') + F(P)) - (F(P') + F(v + P)), with P the parents of v and P'
    those parents with u toggled; a reversal sums four terms a side.  Moves
    that reach Markov-equivalent structures change the same multiset of set
    terms, so their gains are equal bit for bit (a covered reversal gains
    exactly 0) and the tie key, not rounding, decides between them.
    """
    add, delete, reverse = graph.add, graph.arc, graph.reverse
    n = len(add)
    moves = [np.flatnonzero(mask) for mask in (delete, reverse, add)]
    if not (len(moves[0]) or len(moves[2])):
        return None
    need = add | delete | reverse.T
    need.ravel()[:: n + 1] = True  # the node terms
    terms = cache.terms(graph.parents, need)
    top, base = terms
    single = ((top + top.diagonal()[:, None]) - (base + base.diagonal()[:, None])).ravel()
    v, u = np.divmod(moves[1], n)
    sides = np.sort(terms[:, (v, v, u, u), (u, v, v, u)], axis=1)
    sums = ((sides[:, 0] + sides[:, 1]) + sides[:, 2]) + sides[:, 3]
    return moves, np.concatenate([single[moves[0]], sums[0] - sums[1], single[moves[2]]])


def _best_move(cache: _ScoreCache, graph: _Graph) -> tuple[float, ArcMove] | None:
    """Highest-gain legal move (see ``_move_gains``), or None when no move
    is legal; ties break on (delete < reverse < add, target, source), which
    is the order of the gains, so the first maximum is the move."""
    found = _move_gains(cache, graph)
    if found is None:
        return None
    moves, gains = found
    at = int(np.argmax(gains))
    best = gains[at]
    for kind, flat in zip(_KINDS, moves):
        if at < len(flat):
            v, u = divmod(int(flat[at]), len(graph.parents))
            return best, ArcMove(kind, u, v)
        at -= len(flat)
    raise AssertionError("the maximum lies in the list")


def _covered_edges(parents: _Parents) -> list[tuple[int, int]]:
    """Arcs u -> v with Pa(v) = Pa(u) + {u}; reversing one is always legal
    and keeps the equivalence class (hence the score) unchanged."""
    return sorted(
        (u, v)
        for v, ps in enumerate(parents)
        for u in ps
        if len(ps) == len(parents[u]) + 1 and set(ps) - {u} == set(parents[u])
    )


def _class_walk(parents: _Parents) -> Iterator[tuple[_Parents, list[ArcMove]]]:
    """Every member of the parent sets' equivalence class, each with the
    covered-edge reversals that reach it, breadth-first from ``parents``
    itself; covered reversals connect a class (Chickering 1995)."""
    seen = {parents}
    frontier = deque([(parents, [])])
    while frontier:
        state, path = frontier.popleft()
        yield state, path
        for u, v in _covered_edges(state):
            move = ArcMove("reverse", u, v)
            nxt = apply_move(state, move)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, path + [move]))


_ESCAPE_BUDGET = 256


def _class_members(graph: _Graph) -> Iterator[tuple[_Graph, list[ArcMove]]]:
    """The members after the first of ``_class_walk`` from the graph's
    parent sets, at most ``_ESCAPE_BUDGET - 1``, each as a ``_Graph`` built
    from the member it was reached from, with its path."""
    graphs = {(): graph}
    for _, path in islice(_class_walk(graph.parents), 1, _ESCAPE_BUDGET):
        member = graphs[tuple(path)] = graphs[tuple(path[:-1])].moved(path[-1])
        yield member, path


def greedy_component_search(
    t: SuffStats,
    prior: NormalWishart,
    init: DagStructure,
    max_parents: int | None = None,
    trace: list[SearchStep] | None = None,
    component: int = 0,
) -> DagStructure:
    """Hill climbing over add/delete/reverse moves until nothing gains more
    than SCORE_EPS.

    Only the nodes whose parents change are rescored per move; the running
    total is re-derived from the per-node scores after every acceptance so
    incremental and full rescoring cannot drift apart.  When no single move
    improves, up to ``_ESCAPE_BUDGET - 1`` other members of the equivalence
    class are tried in ``_class_walk`` order; an escape is accepted only
    when one more move gains more than SCORE_EPS; the covered reversals
    before it gain exactly 0 (``_move_gains``), so every accepted
    transformation still increases the criterion and the search terminates.
    The returned structure has no improving neighbor.

    The climb keeps its ``_Graph`` and its ``_ScoreCache`` from one move to
    the next, and each class member's graph is built from the member it
    was reached from (``_class_members``).
    """
    graph = _Graph.of(init.parents, max_parents)
    cache = _ScoreCache(prior, t)
    cache.marginals.fill(node_families(enumerate(graph.parents)))
    node_scores = np.array(
        [local_score(cache.marginals, i, ps) for i, ps in enumerate(graph.parents)]
    )

    def accept(move: ArcMove, sideways: bool) -> None:
        nonlocal graph
        if trace is not None:
            before = float(node_scores.sum())
        for node, ps in _new_parents(graph.parents, move):
            node_scores[node] = local_score(cache.marginals, node, ps)
        graph = graph.moved(move)
        if trace is not None:
            total = float(node_scores.sum())
            trace.append(
                SearchStep(
                    ArcMove(move.kind, move.source, move.target, component),
                    total - before,
                    total,
                    sideways,
                )
            )

    while True:
        found = _best_move(cache, graph)
        if found is not None and found[0] > SCORE_EPS:
            accept(found[1], sideways=False)
            continue
        for member, path in _class_members(graph):
            found = _best_move(cache, member)
            if found is not None and found[0] > SCORE_EPS:
                break
        else:
            return DagStructure(init.n, graph.parents)
        for move in path:
            accept(move, sideways=True)
        accept(found[1], sideways=False)


def search_all_components(
    mix_stats: MixtureStats,
    structures: Sequence[DagStructure],
    prior: NormalWishart,
    max_parents: int | None = None,
    traces: list[list[SearchStep]] | None = None,
) -> tuple[DagStructure, ...]:
    """Independent greedy search per Gaussian component, ``structures[c]``
    from ``mix_stats.triples[c]``; the noise component has no structure."""
    out = []
    for c, (t, init) in enumerate(zip(mix_stats.triples, structures, strict=True)):
        trace = None
        if traces is not None:
            trace = []
            traces.append(trace)
        out.append(
            greedy_component_search(
                t, prior, init, max_parents=max_parents, trace=trace, component=c
            )
        )
    return tuple(out)


# --- Markov-equivalence utilities -------------------------------------------


@dataclass(frozen=True)
class Cpdag:
    """Completed partially directed graph: compelled arcs plus undirected edges."""

    n: int
    directed: frozenset[tuple[int, int]]
    undirected: frozenset[tuple[int, int]]  # stored with smaller index first


def to_cpdag(parents: _Parents) -> Cpdag:
    """Orient exactly the compelled arcs of the equivalence class of the DAG
    with these parent sets.

    One pass in topological order (Chickering 1995): the arcs into ``y``
    take their labels from the compelled arcs into ``x``, the parent of
    ``y`` latest in that order, and from the parents of ``y`` that are not
    adjacent to ``x``.  Every arc into ``y`` is labelled before any child
    of ``y`` is visited.  Raises CycleDetected on cyclic parent sets.
    """
    order = _topological_order(parents)
    rank = {v: i for i, v in enumerate(order)}
    directed: set[tuple[int, int]] = set()
    undirected: set[tuple[int, int]] = set()
    for y in order:
        ps = parents[y]
        if not ps:
            continue
        x = max(ps, key=rank.__getitem__)
        px = parents[x]
        compelled = False
        for w in px:
            if (w, x) in directed:
                if w not in ps:
                    compelled = True
                    break
                directed.add((w, y))
        if compelled or any(z != x and z not in px for z in ps):
            directed.update((p, y) for p in ps)
        else:
            undirected.update((min(p, y), max(p, y)) for p in ps if (p, y) not in directed)
    return Cpdag(len(parents), frozenset(directed), frozenset(undirected))


_DIFFERENCE_STATE_CAP = 60000


def _skeleton(parents: _Parents) -> frozenset[tuple[int, int]]:
    return frozenset((min(u, v), max(u, v)) for v, ps in enumerate(parents) for u in ps)


def structural_difference(learned: DagStructure, gold: DagStructure) -> int:
    """Minimum number of arc manipulations from one structure to the other,
    not counting manipulations that stay inside an equivalence class.

    A* over equivalence classes keyed by CPDAG, where every move of any
    member that leaves its class costs one: every move but a covered
    reversal, which stays in the class (Chickering 1995) and is skipped.
    The bound is the skeleton symmetric difference to ``gold``.  Every
    member of a class has the same skeleton and one move changes at most
    one adjacency, so the bound is consistent, and a successor's bound is
    the popped class's moved by the move alone: an add or a delete of an
    adjacency of ``gold`` moves it by -1 or +1, of another adjacency by +1
    or -1, and an uncovered reversal leaves it.  A successor is pushed as
    its parent sets and keyed by its CPDAG only when it is popped; with a
    consistent bound the first pop of a class carries its distance, and
    later pops of the class are skipped.  Zero exactly when the structures
    are Markov equivalent; DimensionMismatch once more than
    ``_DIFFERENCE_STATE_CAP`` class members have been walked.
    """
    if learned.n != gold.n:
        raise DimensionMismatch(f"structures have n={learned.n} and n={gold.n}")
    target, gold_skeleton = to_cpdag(gold.parents), _skeleton(gold.parents)
    h = len(_skeleton(learned.parents) ^ gold_skeleton)
    closed: set[Cpdag] = set()
    # ties go to the smaller bound (the deeper class), then the parent sets
    heap = [(h, h, learned.parents)]
    walked = 0
    while heap:
        f, h, parents = heapq.heappop(heap)
        cls, d = to_cpdag(parents), f - h
        if cls in closed:
            continue
        if cls == target:
            return d
        closed.add(cls)
        for state, _ in _class_walk(parents):
            walked += 1
            if walked > _DIFFERENCE_STATE_CAP:
                raise DimensionMismatch(
                    "structural difference search exceeded its state budget"
                )
            for move in neighbors(state):
                u, v = move.source, move.target
                if move.kind == "reverse":
                    if set(state[v]) - {u} == set(state[u]):
                        continue  # covered
                    step = 0
                else:
                    # adding one of gold's adjacencies, or deleting another
                    closer = ((min(u, v), max(u, v)) in gold_skeleton) == (move.kind == "add")
                    step = -1 if closer else 1
                heapq.heappush(heap, (d + 1 + h + step, h + step, apply_move(state, move)))
    raise AssertionError("DAG space is connected; target must be reachable")
