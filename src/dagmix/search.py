"""Greedy per-component DAG search and equivalence-class utilities.

Because the criterion factors into per-component per-node terms, each
component is searched independently and a move only touches the terms of
the nodes whose parent sets change.  Equivalence-aware comparison goes
through completed partially directed graphs (compelled arcs directed,
reversible arcs undirected).  Internal: input is validated where it
enters the package (see its docstring).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bayes import FamilyMarginals, NormalWishart, local_score
from .errors import BadParentIndex, DimensionMismatch
from .model import DagStructure
from .stats import MixtureStats, SuffStats

SCORE_EPS = 1e-9


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


def _legal(structure: DagStructure) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(add, delete, reverse): n x n masks, entry [u, v] for the move on u -> v.

    With ``reach`` the transitive closure of the arc matrix, adding u -> v
    is legal iff v cannot reach u, and reversing u -> v is legal iff no path
    u ~> v of two or more arcs exists, i.e. iff (arc @ reach)[u, v] is zero
    (such a path cannot run through u -> v itself without a cycle).  The
    closure comes from repeated squaring of a 0/1 float matrix, which each
    round doubles the path length covered and is exact.  Raises
    BadParentIndex on a parent outside [0, n) or a parent list of another
    length.
    """
    n = structure.n
    if len(structure.parents) != n:
        raise BadParentIndex(f"expected {n} parent sets, got {len(structure.parents)}")
    arc = np.zeros((n, n))
    for child, ps in enumerate(structure.parents):
        for parent in ps:
            if not 0 <= parent < n:
                raise BadParentIndex(f"node {child} has parent {parent} outside [0, {n})")
            arc[parent, child] = 1.0
    reach = arc
    while True:
        longer = np.minimum(reach + reach @ reach, 1.0)
        if (longer == reach).all():
            break
        reach = longer
    has_arc = arc > 0
    add = ~(has_arc | (reach > 0).T)
    np.fill_diagonal(add, False)
    return add, has_arc, has_arc & (arc @ reach == 0)


def neighbors(structure: DagStructure) -> list[ArcMove]:
    """All single-arc moves whose result is acyclic, in (source, target)
    order with a delete before the reverse of the same arc."""
    add, delete, reverse = _legal(structure)
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
    structure: DagStructure, move: ArcMove
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """The (node, new parent set) pairs a move rewrites: the target first,
    then the source for a reversal.  Every other node keeps its parents, so
    these are the only family terms the move rescores."""
    u, v = move.source, move.target
    ps = structure.parents
    if move.kind == "add":
        return ((v, ps[v] + (u,)),)
    at = ps[v].index(u)
    trimmed = ps[v][:at] + ps[v][at + 1:]
    if move.kind == "delete":
        return ((v, trimmed),)
    if move.kind == "reverse":
        return ((v, trimmed), (u, ps[u] + (v,)))
    raise ValueError(f"unknown move kind {move.kind!r}")


def apply_move(structure: DagStructure, move: ArcMove) -> DagStructure:
    parents = list(structure.parents)
    for node, ps in _new_parents(structure, move):
        parents[node] = tuple(sorted(ps))
    return DagStructure(structure.n, tuple(parents))


class _ScoreCache:
    """Node scores of one component, keyed by (node, sorted parents), and
    the set terms of its gains, all over one ``FamilyMarginals``.

    With F(Y) the family marginal of variable set Y (F of the empty set is
    0), node v with parents P scores F(v + P) - F(P).  ``gains`` keeps two
    n x n matrices from one call to the next: T[0][u, v] = F(v + P') and
    T[1][u, v] = F(P'), where P' is v's parent set with u toggled.  It
    swaps in only the columns whose parent set changed; each (node,
    parents) column is cached, so a structure that returns to a parent
    set, or an equivalent state the escape walks, reads the terms already
    computed.
    """

    def __init__(self, prior: NormalWishart, t: SuffStats):
        self.prior = prior
        self.t = t
        self.marginals = FamilyMarginals(prior, t)
        self._cache: dict[tuple[int, tuple[int, ...]], float] = {}
        self._columns: dict[tuple[int, tuple[int, ...]], np.ndarray] = {}
        self._terms = np.full((2, t.dim, t.dim), np.nan)
        self._node_terms = np.zeros((2, t.dim))
        self._gain_parents: list[tuple[int, ...] | None] = [None] * t.dim

    def node_score(self, node: int, parents: Iterable[int]) -> float:
        key = (node, tuple(sorted(parents)))
        hit = self._cache.get(key)
        if hit is None:
            hit = local_score(self.prior, self.t, key[0], key[1], self.marginals)
            self._cache[key] = hit
        return hit

    def gains(
        self, parents: Sequence[tuple[int, ...]], need: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(T, N) for the structure with these parent sets, where N[0][v] =
        F(v + Pa(v)) and N[1][v] = F(Pa(v)).  Every entry of T that ``need``
        marks holds its terms; the others may hold NaN or older terms.

        Columns whose parent set differs from the last call's (the target
        of a move, and the source of a reversal) are swapped for the cached
        column of the new set.  The marked entries still NaN are then filled
        together: both families of each go to one ``FamilyMarginals.fill``.
        """
        terms, nodes = self._terms, self._node_terms
        for v, ps in enumerate(parents):
            if self._gain_parents[v] != ps:
                self._gain_parents[v] = ps
                col = self._columns.get((v, ps))
                if col is None:
                    col = self._columns[(v, ps)] = np.full((2, len(parents)), np.nan)
                terms[:, :, v] = col
                nodes[:, v] = self.marginals((v, *ps)), self.marginals(ps) if ps else 0.0
        us, vs = np.nonzero(need & np.isnan(terms[0]))
        if not len(us):
            return terms, nodes
        tops, bases = [], []
        for u, v in zip(us.tolist(), vs.tolist()):
            ps = parents[v]
            toggled = tuple(p for p in ps if p != u) if u in ps else ps + (u,)
            tops.append((v, *toggled))
            bases.append(toggled)
        values = iter(self.marginals.fill(tops + [b for b in bases if b]))
        terms[0, us, vs] = [next(values) for _ in tops]
        terms[1, us, vs] = [next(values) if b else 0.0 for b in bases]
        for v in set(vs.tolist()):
            self._columns[(v, parents[v])][:] = terms[:, :, v]
        return terms, nodes


def _ordered_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Elementwise sum of equal-shape arrays, each element's terms added in
    ascending order, so the result depends only on the multiset of terms."""
    ordered = np.sort(terms, axis=0)
    total = ordered[0]
    for term in ordered[1:]:
        total = total + term
    return total


def _move_gains(
    cache: _ScoreCache, structure: DagStructure, max_parents: int | None
) -> tuple[tuple[str, np.ndarray, np.ndarray], ...] | None:
    """(kind, legal mask, gain matrix) for delete, reverse and add, entry
    [u, v] for the move on u -> v; None when no add or delete is legal.
    With ``max_parents`` a move is skipped when the parent set it grows
    (the target's for an add, the source's for a reversal) would exceed
    the cap; deletes are never capped.

    Each gain is one canonical sum of set terms: the F terms the move adds
    to the score summed in ascending order, minus the F terms it removes
    summed the same way.  An add or delete of u -> v gains
    (F(v + P') + F(P)) - (F(P') + F(v + P)), with P the parents of v and P'
    those parents with u toggled; a reversal sums four terms a side.  Moves
    that reach Markov-equivalent structures change the same multiset of set
    terms, so their gains are equal bit for bit (a covered reversal gains
    exactly 0) and the tie key, not rounding, decides between them.  Only
    the terms that a legal, uncapped move reads are computed.
    """
    add, delete, reverse = _legal(structure)
    if max_parents is not None:
        grows = np.array([len(ps) < max_parents for ps in structure.parents])
        add &= grows[None, :]
        reverse &= grows[:, None]
    if not (add.any() or delete.any()):
        return None
    (top, base), (node_top, node_base) = cache.gains(
        structure.parents, add | delete | reverse.T
    )
    single = (top + node_base[None, :]) - (base + node_top[None, :])
    reversal = np.full_like(single, -np.inf)
    u, v = np.nonzero(reverse)
    if len(u):
        reversal[u, v] = _ordered_sum(
            [top[u, v], node_base[v], top[v, u], node_base[u]]
        ) - _ordered_sum([base[u, v], node_top[v], base[v, u], node_top[u]])
    return ("delete", delete, single), ("reverse", reverse, reversal), ("add", add, single)


def _best_move(
    cache: _ScoreCache, structure: DagStructure, max_parents: int | None
) -> tuple[float, ArcMove] | None:
    """Highest-gain legal move (see ``_move_gains``); ties break on
    (delete < reverse < add, target, source)."""
    tables = _move_gains(cache, structure, max_parents)
    if tables is None:
        return None
    best = max(gains[mask].max() for _, mask, gains in tables if mask.any())
    for kind, mask, gains in tables:
        hits = np.argwhere((mask & (gains == best)).T)
        if len(hits):
            v, u = hits[0].tolist()
            return gains[u, v], ArcMove(kind, u, v)
    return None


def _covered_edges(structure: DagStructure) -> list[tuple[int, int]]:
    """Arcs u -> v with Pa(v) = Pa(u) + {u}; reversing one is always legal
    and keeps the equivalence class (hence the score) unchanged."""
    return sorted(
        (u, v)
        for u, v in structure.arcs()
        if set(structure.parents[v]) - {u} == set(structure.parents[u])
    )


def _class_walk(structure: DagStructure) -> Iterator[tuple[DagStructure, list[ArcMove]]]:
    """Every member of the structure's equivalence class, each with the
    covered-edge reversals that reach it, breadth-first from ``structure``
    itself; covered reversals connect a class (Chickering 1995)."""
    seen = {structure.parents}
    frontier = deque([(structure, [])])
    while frontier:
        state, path = frontier.popleft()
        yield state, path
        for u, v in _covered_edges(state):
            move = ArcMove("reverse", u, v)
            nxt = apply_move(state, move)
            if nxt.parents not in seen:
                seen.add(nxt.parents)
                frontier.append((nxt, path + [move]))


_ESCAPE_BUDGET = 256


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
    """
    init.validate()
    structure = init
    cache = _ScoreCache(prior, t)
    node_scores = np.array(
        [cache.node_score(i, ps) for i, ps in enumerate(structure.parents)]
    )

    def accept(move: ArcMove, sideways: bool) -> None:
        nonlocal structure
        before = float(node_scores.sum())
        for node, ps in _new_parents(structure, move):
            node_scores[node] = cache.node_score(node, ps)
        structure = apply_move(structure, move)
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
        found = _best_move(cache, structure, max_parents)
        if found is not None and found[0] > SCORE_EPS:
            accept(found[1], sideways=False)
            continue
        for state, path in islice(_class_walk(structure), 1, _ESCAPE_BUDGET):
            found = _best_move(cache, state, max_parents)
            if found is not None and found[0] > SCORE_EPS:
                break
        else:
            return structure
        for move in path:
            accept(move, sideways=True)
        accept(found[1], sideways=False)


def search_all_components(
    mix_stats: MixtureStats,
    structures: Sequence[DagStructure],
    priors: Sequence[NormalWishart],
    max_parents: int | None = None,
    traces: list[list[SearchStep]] | None = None,
) -> tuple[DagStructure, ...]:
    """Independent greedy search per Gaussian component; noise untouched.

    The statistics may carry a leading noise triple; the trailing triples
    line up with ``structures``.
    """
    offset = mix_stats.n_components - len(structures)
    if offset not in (0, 1):
        raise DimensionMismatch(
            f"{mix_stats.n_components} triples for {len(structures)} structures"
        )
    if len(priors) != len(structures):
        raise DimensionMismatch("one prior per searched component")
    out = []
    for c, init in enumerate(structures):
        trace = None
        if traces is not None:
            trace = []
            traces.append(trace)
        out.append(
            greedy_component_search(
                mix_stats.triples[offset + c],
                priors[c],
                init,
                max_parents=max_parents,
                trace=trace,
                component=c,
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


def to_cpdag(structure: DagStructure) -> Cpdag:
    """Orient exactly the compelled arcs of the structure's equivalence class.

    One pass in topological order (Chickering 1995): the arcs into ``y``
    take their labels from the compelled arcs into ``x``, the parent of
    ``y`` latest in that order, and from the parents of ``y`` that are not
    adjacent to ``x``.  Every arc into ``y`` is labelled before any child
    of ``y`` is visited.  Raises CycleDetected on a cyclic structure.
    """
    order = structure.topological_order
    rank = {v: i for i, v in enumerate(order)}
    directed: set[tuple[int, int]] = set()
    undirected: set[tuple[int, int]] = set()
    for y in order:
        ps = structure.parents[y]
        if not ps:
            continue
        x = max(ps, key=rank.__getitem__)
        px = structure.parents[x]
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
    return Cpdag(structure.n, frozenset(directed), frozenset(undirected))


_DIFFERENCE_STATE_CAP = 60000


def _skeleton(structure: DagStructure) -> frozenset[tuple[int, int]]:
    return frozenset((min(u, v), max(u, v)) for u, v in structure.arcs())


def structural_difference(learned: DagStructure, gold: DagStructure) -> int:
    """Minimum number of arc manipulations from one structure to the other,
    not counting manipulations that stay inside an equivalence class.

    A* over equivalence classes keyed by CPDAG, where every move of any
    member that leaves its class (all but covered reversals) costs one.
    The skeleton symmetric difference to ``gold`` bounds the distance left,
    since one move changes at most one adjacency.  Zero exactly when the
    structures are Markov equivalent; DimensionMismatch once more than
    ``_DIFFERENCE_STATE_CAP`` class members have been walked.
    """
    learned.validate()
    gold.validate()
    if learned.n != gold.n:
        raise DimensionMismatch(f"structures have n={learned.n} and n={gold.n}")
    target, gold_skeleton = to_cpdag(gold), _skeleton(gold)
    h = len(_skeleton(learned) ^ gold_skeleton)
    best = {to_cpdag(learned): 0}
    # ties go to the smaller bound (the deeper class), then the parent sets
    heap = [(h, h, learned.parents)]
    walked = 0
    while heap:
        f, h, parents = heapq.heappop(heap)
        member = DagStructure(learned.n, parents)
        cls, d = to_cpdag(member), f - h
        if d > best[cls]:
            continue
        if cls == target:
            return d
        for state, _ in _class_walk(member):
            walked += 1
            if walked > _DIFFERENCE_STATE_CAP:
                raise DimensionMismatch(
                    "structural difference search exceeded its state budget"
                )
            for move in neighbors(state):
                nxt = apply_move(state, move)
                key = to_cpdag(nxt)  # cls again for a covered reversal
                if key in best and best[key] <= d + 1:
                    continue
                best[key] = d + 1
                h = len(_skeleton(nxt) ^ gold_skeleton)
                heapq.heappush(heap, (d + 1 + h, h, nxt.parents))
    raise AssertionError("DAG space is connected; target must be reachable")
