"""Greedy per-component DAG search and equivalence-class utilities.

Because the criterion factors into per-component per-node terms, each
component is searched independently and a move only touches the terms of
the nodes whose parent sets change (Chickering 2002).  A search keeps its
state from one move to the next: the arc and reachability matrices and the
legality masks are updated from the state before (an added arc joins two
sets of the closure, after Italiano 1986), and the family terms are kept
per variable set, so a step reads only the terms its changed nodes and
newly legal moves need.  When the climb stalls, the members of its
equivalence class are scored as stacks: each member's masks and term rows
are derived from the member it was reached from, with plain ints, and one
gather and one gains routine (``_gains``, which the climb calls on a stack
of one) score every member whose terms are in the store or memoised; a
member that lacks terms never scored gets the one fill it would get alone,
so a stalled climb scores the same families as one that scores its members
one by one.  Equivalence-aware comparison goes through completed partially
directed graphs (compelled arcs directed, reversible arcs undirected).
Search climbs on the family marginals of each Gaussian component
(``bayes.family_marginals``), zipped with the structures; ``fit`` scores
the structures search returns on the same memos.  Internal: input is
validated where it enters the package (see its docstring).  A search state
is a plain tuple of parent sets, carried with its matrices (``_Graph``);
only a search's result is built as a ``DagStructure``.
"""

from __future__ import annotations

import functools
import heapq
from collections import deque
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Sequence

import numpy as np

from .bayes import FamilyMarginals, local_score, node_families
from .errors import DimensionMismatch
from .model import DagStructure, _topological_order

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
    (``_legal``).  ``legal`` stacks ``arc`` (the legal deletes),
    ``reverse`` and ``add`` in ``_KINDS`` order.  A state reached by a move
    is built from the state before it (``moved``)."""

    __slots__ = ("parents", "cap", "legal", "reach")

    def __init__(self, parents: _Parents, cap: int | None, legal: np.ndarray, reach: np.ndarray):
        self.parents, self.cap, self.legal, self.reach = parents, cap, legal, reach

    arc = property(lambda self: self.legal[0])
    reverse = property(lambda self: self.legal[1])
    add = property(lambda self: self.legal[2])

    @classmethod
    def of(cls, parents: _Parents, cap: int | None = None) -> _Graph:
        n = len(parents)
        legal = np.zeros((3, n, n), dtype=bool)
        for child, ps in enumerate(parents):
            legal[0, child, list(ps)] = True
        reach = _closure(legal[0])
        _legal(legal, reach, cap)
        return cls(parents, cap, legal, reach)

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
        legal, reach = self.legal.copy(), self.reach.copy()
        arc, reverse, add = legal[0], legal[1], legal[2]
        arc[v, u] = move.kind == "add"
        if move.kind == "add":
            below, above = reach[:, v].copy(), reach[u].copy()
            below[v] = above[u] = True
            joined = below[:, None] & above
            reach |= joined
            add &= ~joined.T
            reverse &= ~joined
            add[v, u] = False
            cap = self.cap
            reverse[v, u] = not self.reach[v, u] and (cap is None or len(parents[u]) < cap)
            if cap is not None and len(parents[v]) >= cap:
                add[v] = False
                reverse[:, v] = False
            return _Graph(parents, cap, legal, reach)
        arc[u, v] = move.kind == "reverse"
        if move.kind == "reverse" and set(self.parents[v]) - {u} == set(self.parents[u]):
            reach[:, v] = reach[:, u]
            reach[v, v], reach[u, v] = False, True
            children = arc[:, u]
            reach[:, u] = children | reach[:, children].any(axis=1)
        else:
            reach = _closure(arc)
        _legal(legal, reach, self.cap)
        return _Graph(parents, self.cap, legal, reach)


def _legal(legal: np.ndarray, reach: np.ndarray, cap: int | None) -> None:
    """Fill the reverse and add masks of one state's C-contiguous (3, n, n)
    ``legal`` (see ``_Graph``), or of each state of a (members, 3, n, n)
    stack, from its arc matrix and its reachability matrix ``reach``:
    entry [v, u] is the move on u -> v, so row v lists the moves that
    rewrite the parents of v.  Adding u -> v is legal iff v cannot reach
    u, and reversing u -> v is legal iff no path u ~> v of two or more
    arcs exists, i.e. iff (arc @ reach)[v, u] is zero (such a path cannot
    run through u -> v itself without a cycle).  Under the cap a move is
    also illegal when the parent set it grows (the target's for an add,
    the source's for a reversal) already holds the cap; a delete, legal
    wherever ``arc`` is set, is never capped."""
    arc, reverse, add = legal[..., 0, :, :], legal[..., 1, :, :], legal[..., 2, :, :]
    n = arc.shape[-1]
    np.logical_or(arc, np.swapaxes(reach, -1, -2), out=add)
    np.logical_not(add, out=add)
    legal.reshape(-1, 3, n * n)[:, 2, :: n + 1] = False
    arcf = arc.astype(float)
    np.equal(arcf @ reach.astype(float), 0, out=reverse)
    reverse &= arc
    if cap is not None:
        full = arcf.sum(axis=-1) >= cap
        add[full] = False
        np.swapaxes(reverse, -1, -2)[full] = False


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

    def __init__(self, marginals: FamilyMarginals):
        n = marginals.prior.dim
        self.marginals = marginals
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

    def ids(self, parents: _Parents) -> np.ndarray:
        """The (2, n) row ids of the state with these parent sets, target
        first: [0, v] is R(Pa(v) + v) and [1, v] is R(Pa(v)).  The ids are
        kept from one call to the next, and only the nodes whose parent
        tuple changed since the last call look up their rows again."""
        ids = self._ids
        # a move rebuilds only the parent tuples it rewrites
        for v in [v for v, (ps, old) in enumerate(zip(parents, self._parents)) if ps is not old]:
            base = tuple(sorted(parents[v]))
            ids[:, v] = self._row(tuple(sorted(base + (v,)))), self._row(base)
        self._parents = parents
        return ids

    def terms(self, ids: np.ndarray, need: np.ndarray) -> np.ndarray:
        """The (members, 2, n, n) terms of a stack of states, each given by
        its (2, n) row ids (``ids``): terms[j, 0, v] = R(Pa(v) + v) and
        terms[j, 1, v] = R(Pa(v)) of state j, so terms[j, :, v, u] is
        F(v + P') and F(P') for P' the parents of v with u toggled, and
        terms[j, :, v, v] is F(Pa(v)) and F(v + Pa(v)).  ``need`` marks
        the (members, n, n) entries each state reads (target first,
        diagonal included), and every marked entry of every state returned
        is filled.  From one gather of the stack, the first state's lacking
        entries are filled in one ``FamilyMarginals.fill`` (which reads the
        memo), and a fill that leaves one missing raises AssertionError,
        since a walk would find that state lacking again; the later
        states' lacking entries whose families are memoised are copied in.
        The stack returned ends before the next state that lacks a family
        never scored, so a state is filled only after every state before it
        was returned."""
        terms = self._store[ids]
        j, side, v, u = np.nonzero(np.isnan(terms) & need[:, None])
        if not len(j):
            return terms
        flat = self._store.reshape(-1)
        places = ids[j, side, v] * ids.shape[-1] + u
        first = j == 0
        if first[0]:
            self._fill(ids[0], np.ravel_multi_index((side[first], v[first], u[first]),
                                                    terms.shape[1:]))
        later = np.unique(places[~first])
        at = later[np.isnan(flat[later])].tolist()
        if at:
            flat[at] = self.marginals.memoised([tuple(sorted(f)) for f in self._families(at)])
        terms[j, side, v, u] = values = flat[places]
        short = j[np.isnan(values)]
        if not len(short):
            return terms
        if short[0] == 0:
            raise AssertionError("a fill left a needed term missing")
        return terms[: short[0]]

    def _fill(self, ids: np.ndarray, lack: np.ndarray) -> None:
        """Fill the entries at the flat places ``lack`` of one state's
        (2, n, n) terms (its row ids ``ids``), in one
        ``FamilyMarginals.fill``."""
        n = ids.shape[-1]
        rows, us = ids.ravel()[lack // n], lack % n
        pairs = self._pairs_open and rows.min() < n
        if pairs:  # a pair family is asked for at [min, max] only
            swap = (rows < n) & (us < rows)
            rows, us = np.where(swap, us, rows), np.where(swap, rows, us)
        # one request per (row, entry), however many nodes share the row
        at = list(dict.fromkeys((rows * n + us).tolist()))
        self._store.reshape(-1)[at] = self.marginals.fill(self._families(at))
        if pairs:
            block = self._store[:n]
            np.copyto(block, block.T, where=np.isnan(block))
            self._pairs_open = bool(np.isnan(block).any())

    def _families(self, at: list[int]) -> list[tuple[int, ...]]:
        """The family of each flat store place row * n + u, unsorted:
        R(Y)[u] reads Y less u, or Y plus u."""
        n = self._store.shape[1]
        families = []
        for row, u in (divmod(i, n) for i in at):
            key = self._keys[row]
            if u in key:
                cut = key.index(u)
                families.append(key[:cut] + key[cut + 1:])
            else:
                families.append(key + (u,))
        return families


_KINDS = ("delete", "reverse", "add")


def _need(legal: np.ndarray) -> np.ndarray:
    """The (members, n, n) terms that a (members, 3, n, n) stack of legal
    delete, reverse and add masks reads: entry [v, u] for an add or a
    delete of u -> v, also [u, v] for a reversal (which rewrites both
    parent sets), and every node's own terms on the diagonal."""
    need = legal[:, 0] | legal[:, 2]
    need |= legal[:, 1].transpose(0, 2, 1)
    n = need.shape[-1]
    need.reshape(-1, n * n)[:, :: n + 1] = True
    return need


def _gains(terms: np.ndarray, legal: np.ndarray) -> np.ndarray:
    """The (members, 3 * n * n) gains of a stack of states, for each state
    its delete, reverse and add of u -> v at the flat index
    kind * n * n + v * n + u, with the kinds in ``_KINDS`` order, and -inf
    where the move is illegal; ``legal`` stacks each state's delete,
    reverse and add masks (see ``_legal``) and ``terms`` its set terms
    (see ``_ScoreCache.terms``).

    Each gain is one canonical sum of set terms: the F terms the move adds
    to the score summed in ascending order, minus the F terms it removes
    summed the same way.  An add or delete of u -> v gains
    (F(v + P') + F(P)) - (F(P') + F(v + P)), with P the parents of v and P'
    those parents with u toggled; a reversal sums four terms a side.  Moves
    that reach Markov-equivalent structures change the same multiset of set
    terms, so their gains are equal bit for bit (a covered reversal gains
    exactly 0) and the tie key, not rounding, decides between them.
    """
    m, _, n, _ = terms.shape
    nn = n * n
    # terms[j, s, v, u] + terms[j, s, v, v]: each side of an add or delete
    sides = terms + terms.reshape(m, 2, nn)[:, :, :: n + 1, None]
    gains = np.where(legal, (sides[:, 0] - sides[:, 1])[:, None], -np.inf).reshape(m, -1)
    flat = np.flatnonzero(legal[:, 1])
    if len(flat):
        j, vu = np.divmod(flat, nn)
        offset = (2 * nn) * j
        four = terms.reshape(-1)[_reversal_places(n)[vu] + offset[:, None]].reshape(-1, 2, 4)
        four.sort(axis=2)
        sums = ((four[:, :, 0] + four[:, :, 1]) + four[:, :, 2]) + four[:, :, 3]
        gains.reshape(-1)[flat + offset + nn] = sums[:, 0] - sums[:, 1]
    return gains


@functools.lru_cache(maxsize=8)
def _reversal_places(n: int) -> np.ndarray:
    """(n * n, 8) places in a state's flattened (2, n, n) terms: row
    v * n + u lists the terms a reversal of u -> v reads, at (v, u),
    (v, v), (u, v) and (u, u) of its target side and then of its base
    side."""
    v, u = np.divmod(np.arange(n * n), n)
    top = np.stack((v * n + u, v * (n + 1), u * n + v, u * (n + 1)), axis=1)
    places = np.concatenate((top, top + n * n), axis=1)
    places.setflags(write=False)
    return places


def _move(at: int, n: int) -> ArcMove:
    kind, flat = divmod(int(at), n * n)
    v, u = divmod(flat, n)
    return ArcMove(_KINDS[kind], u, v)


def _best_move(cache: _ScoreCache, graph: _Graph) -> tuple[float, ArcMove] | None:
    """Highest-gain legal move of the climb's state (``_gains`` on a stack
    of one), or None when no move is legal; ties break on (delete <
    reverse < add, target, source), the order of the gains, so the first
    maximum is the move."""
    legal = graph.legal[None]
    if not legal.any():
        return None
    gains = _gains(cache.terms(cache.ids(graph.parents)[None], _need(legal)), legal)[0]
    at = int(gains.argmax())
    return gains[at], _move(at, len(graph.parents))


def _class_walk(parents: _Parents) -> Iterator[tuple[_Parents, int, tuple[int, int] | None]]:
    """Every member of the parent sets' equivalence class, breadth-first
    from ``parents`` itself, each with the walk index of the member it was
    reached from and the covered arc (u, v) whose reversal reached it (-1
    and None for ``parents``); covered reversals connect a class
    (Chickering 1995).  An arc u -> v is covered when Pa(v) = Pa(u) + {u};
    reversing one is always legal and keeps the class.  A member's covered
    arcs are taken in (u, v) order.  Members are told apart by their arc
    matrix packed into one int (see ``_pack``), which a reversal changes in
    two bits; a member's parent sets and parent bitmasks are built only
    when it is reached, from the member it was reached from."""
    n = len(parents)
    bits = [sum(1 << p for p in ps) for ps in parents]
    code = sum(row << v * n for v, row in enumerate(bits))
    seen = {code}
    frontier = deque([(code, -1, None)])
    states: list[tuple[_Parents, list[int]]] = []
    while frontier:
        code, origin, edge = frontier.popleft()
        if edge is None:
            state = parents
        else:
            u, v = edge
            state, bits = states[origin]
            state, bits = list(state), bits.copy()
            state[v] = tuple(p for p in state[v] if p != u)
            state[u] = tuple(sorted(state[u] + (v,)))
            state = tuple(state)
            bits[v] ^= 1 << u
            bits[u] |= 1 << v
        here = len(states)
        states.append((state, bits))
        yield state, origin, edge
        for u, v in sorted((u, v) for v, ps in enumerate(state) for u in ps
                           if bits[v] == bits[u] | 1 << u):
            moved = code ^ (1 << v * n + u | 1 << u * n + v)
            if moved not in seen:
                seen.add(moved)
                frontier.append((moved, here, (u, v)))


_ESCAPE_BUDGET = 256
# A chunk of class members holds about this many (n x n) entries at first
_CHUNK_ENTRIES = 1024


def _pack(matrix: np.ndarray) -> int:
    """An (n, n) boolean matrix as one int, entry [x, y] at bit x * n + y."""
    return int.from_bytes(np.packbits(matrix, axis=None, bitorder="little").tobytes(), "little")


def _below(children: int, desc: int, n: int) -> int:
    """The descendants of a node with these children (a bitmask), from
    the descendants of each child, row c of the packed ``desc``."""
    mask = (1 << n) - 1
    out = 0
    while children:
        low = children & -children
        out |= low | desc >> (low.bit_length() - 1) * n & mask
        children ^= low
    return out


def _unpack(packed: list[int], n: int) -> np.ndarray:
    """(len(packed), n, n) boolean matrices, entry [x, y] of each at bit
    x * n + y of its int."""
    size = -(-n * n // 8)
    raw = np.frombuffer(b"".join(p.to_bytes(size, "little") for p in packed), np.uint8)
    bits = np.unpackbits(raw, bitorder="little").reshape(len(packed), 8 * size)
    return bits[:, : n * n].reshape(-1, n, n).view(bool)


def _member_chunks(
    graph: _Graph, cache: _ScoreCache
) -> Iterator[tuple[list[tuple[_Parents, int, tuple[int, int] | None]], np.ndarray, np.ndarray]]:
    """The members after the first of ``_class_walk`` from the climb's
    state, at most ``_ESCAPE_BUDGET - 1``, in chunks: each chunk as its
    walk entries, its (members, 3, n, n) delete, reverse and add masks
    (``_Graph.legal``) and its (members, 2, n) row ids (see
    ``_ScoreCache.ids``).  Chunks grow: the first holds about
    ``_CHUNK_ENTRIES`` entries' worth of members (at least one), and each
    later one as many members as all before it, so a walk that stops
    early builds few members past the one it stops at.

    Each member is derived from the member it was reached from, by the
    covered reversal of u -> v, as matrices packed into ints (``_pack``,
    row x for node x): its arc matrix, its children (the transpose) and
    its descendants (the transpose of ``_Graph.reach``); and as its row
    ids.  The reversal flips the same two bits of the arc matrix and of
    its transpose, and changes the descendants of u and v alone (see
    ``_Graph.moved``).  It rewrites the ids of two nodes and reads at most
    one row not read before: u's new target row is v's old one, v's new
    parent row is u's old one, and both other rows are R(Pa(u) + v).  A
    chunk's matrices are unpacked, and its masks computed, at once
    (``_legal``).
    """
    parents = graph.parents
    n = len(parents)
    mask = (1 << n) - 1
    # by walk index: the packed arc, children and descendant matrices, and
    # the row ids (targets, then parent sets)
    arc_of, kids_of, desc_of = ([_pack(x)] for x in (graph.arc, graph.arc.T, graph.reach.T))
    ids_of = [cache.ids(parents).ravel().tolist()]
    walk = islice(_class_walk(parents), 1, _ESCAPE_BUDGET)
    size = max(1, _CHUNK_ENTRIES // (n * n))
    while chunk := list(islice(walk, size)):
        first = len(arc_of)
        for state, origin, (u, v) in chunk:
            flip = 1 << v * n + u | 1 << u * n + v
            kids, desc = kids_of[origin] ^ flip, desc_of[origin]
            old_u, old_v = desc >> u * n & mask, desc >> v * n & mask
            new_u = _below(kids >> u * n & mask, desc, n)
            new_v = old_u & ~(1 << v) | 1 << u
            arc_of.append(arc_of[origin] ^ flip)
            kids_of.append(kids)
            desc_of.append(desc ^ ((old_u ^ new_u) << u * n | (old_v ^ new_v) << v * n))
            row, was = cache._row(state[u]), ids_of[origin]
            ids = was.copy()
            ids[u], ids[n + v] = was[v], was[n + u]
            ids[v] = ids[n + u] = row
            ids_of.append(ids)
        legal = np.empty((len(chunk), 3, n, n), dtype=bool)
        both = _unpack(arc_of[first:] + desc_of[first:], n)
        legal[:, 0] = both[: len(chunk)]
        _legal(legal, np.swapaxes(both[len(chunk):], 1, 2), graph.cap)
        yield chunk, legal, np.array(ids_of[first:], dtype=np.intp).reshape(-1, 2, n)
        size = len(arc_of) - 1


def _escape(cache: _ScoreCache, graph: _Graph) -> tuple[list[ArcMove], ArcMove] | None:
    """(path, move): the covered reversals from the climb's state to the
    first member of its class, in ``_class_walk`` order and within
    ``_ESCAPE_BUDGET``, whose best move gains more than SCORE_EPS, and
    that move; None when no member has one.

    Each chunk of members (``_member_chunks``) is evaluated as stacks
    (``_ScoreCache.terms``): the members whose needed terms are in the
    store or memoised are evaluated at once, and each member that lacks
    terms never scored after the members before it, with exactly the fill
    it would get alone, so the families scored are the ones a
    member-by-member walk scores."""
    walked = [(graph.parents, -1, None)]
    for chunk, legal, ids in _member_chunks(graph, cache):
        first = len(walked)
        walked += chunk
        need = _need(legal)
        at = 0
        while at < len(chunk):
            terms = cache.terms(ids[at:], need[at:])
            gains = _gains(terms, legal[at:at + len(terms)])
            hits = np.flatnonzero(gains.max(axis=1) > SCORE_EPS)
            if len(hits):
                hit = int(hits[0])
                j, path = first + at + hit, []
                while j > 0:
                    _, j, (u, v) = walked[j]
                    path.append(ArcMove("reverse", u, v))
                return path[::-1], _move(gains[hit].argmax(), len(graph.parents))
            at += len(terms)
    return None


def greedy_component_search(
    marginals: FamilyMarginals,
    init: DagStructure,
    max_parents: int | None = None,
    trace: list[SearchStep] | None = None,
    component: int = 0,
) -> DagStructure:
    """Hill climbing over add/delete/reverse moves until nothing gains more
    than SCORE_EPS, scored on one Gaussian component's family marginals.

    Only the nodes whose parents change are rescored per move; the running
    total is re-derived from the per-node scores after every acceptance so
    incremental and full rescoring cannot drift apart.  When no single move
    improves, up to ``_ESCAPE_BUDGET - 1`` other members of the equivalence
    class are tried in ``_class_walk`` order; an escape is accepted only
    when one more move gains more than SCORE_EPS; the covered reversals
    before it gain exactly 0 (``_gains``), so every accepted
    transformation still increases the criterion and the search terminates.
    The returned structure has no improving neighbor.

    The climb keeps its ``_Graph`` and its ``_ScoreCache`` from one move to
    the next, and reads its best move off ``_gains`` on a stack of one.
    Every node family of the structure returned is left memoised
    (``local_score``).  A stalled climb's class is walked in chunks that
    grow (``_escape``): within a chunk, the members whose needed terms are
    all in the store or memoised are scored in one stack, and each member
    that lacks terms never scored is filled alone, in walk order, after
    every member before it was scored.
    """
    graph = _Graph.of(init.parents, max_parents)
    cache = _ScoreCache(marginals)
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
        escape = _escape(cache, graph)
        if escape is None:
            return DagStructure(init.n, graph.parents)
        path, move = escape
        for step in path:
            accept(step, sideways=True)
        accept(move, sideways=False)


def search_all_components(
    marginals: Sequence[FamilyMarginals],
    structures: Sequence[DagStructure],
    max_parents: int | None = None,
    traces: list[list[SearchStep]] | None = None,
) -> tuple[DagStructure, ...]:
    """Independent greedy search per Gaussian component, from
    ``structures[c]`` on ``marginals[c]`` (``bayes.family_marginals``); the
    noise component has no structure."""
    out = []
    for c, (component, init) in enumerate(zip(marginals, structures, strict=True)):
        trace = None
        if traces is not None:
            trace = []
            traces.append(trace)
        out.append(
            greedy_component_search(
                component, init, max_parents=max_parents, trace=trace, component=c
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
        for state, _, _ in _class_walk(parents):
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
