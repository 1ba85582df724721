from collections import deque
from itertools import combinations

import networkx as nx
import numpy as np
import pytest

import dagmix.search as search_module
from dagmix.bayes import NormalWishart
from dagmix.engine import PriorSpec
from dagmix.errors import BadParentIndex, CycleDetected, DimensionMismatch
from dagmix.harness import default_gold_standard
from dagmix.model import DagStructure, complete_structure, empty_structure, sample
from dagmix.search import (
    ArcMove,
    _best_move,
    _new_parents,
    _ScoreCache,
    _covered_edges,
    _legal,
    _move_gains,
    apply_move,
    greedy_component_search,
    neighbors,
    search_all_components,
    structural_difference,
    to_cpdag,
)
from dagmix.stats import MixtureStats, SuffStats, labeled_stats
from conftest import random_dag, structure_score, zero_stats
from test_bayes import random_prior, stats_of, twin_column_stats


def skeleton_and_vstructs(s: DagStructure):
    skeleton = frozenset(frozenset((u, v)) for u, v in s.arcs())
    colliders = set()
    for v, ps in enumerate(s.parents):
        for a, b in combinations(sorted(ps), 2):
            if frozenset((a, b)) not in skeleton:
                colliders.add((a, v, b))
    return skeleton, frozenset(colliders)


class TestNeighbors:
    def test_two_isolated_nodes(self):
        moves = neighbors(empty_structure(2))
        assert {(m.kind, m.source, m.target) for m in moves} == {
            ("add", 0, 1),
            ("add", 1, 0),
        }

    def test_single_arc(self):
        s = DagStructure(2, ((), (0,)))
        moves = {(m.kind, m.source, m.target) for m in neighbors(s)}
        assert moves == {("delete", 0, 1), ("reverse", 0, 1)}

    @pytest.mark.parametrize("n, p", [(5, 0.45), (7, 0.5)])
    def test_against_brute_force_legality(self, rng, n, p):
        # every produced move keeps the graph acyclic, and no legal move is
        # missed; at n=7, p=0.5 paths of three or more arcs are common
        for _ in range(15):
            s = random_dag(n, rng, p=p)
            produced = {(m.kind, m.source, m.target) for m in neighbors(s)}
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    for kind in ("add", "delete", "reverse"):
                        if kind == "add" and u in s.parents[v]:
                            continue
                        if kind in ("delete", "reverse") and u not in s.parents[v]:
                            continue
                        candidate = apply_move(s, ArcMove(kind, u, v))
                        g = nx.DiGraph()
                        g.add_nodes_from(range(n))
                        g.add_edges_from(candidate.arcs())
                        legal = nx.is_directed_acyclic_graph(g)
                        assert ((kind, u, v) in produced) == legal

    def test_chain_middle_reverse_allowed(self):
        s = DagStructure(3, ((), (0,), (1,)))
        moves = {(m.kind, m.source, m.target) for m in neighbors(s)}
        assert ("reverse", 0, 1) in moves
        assert ("reverse", 1, 2) in moves


_KIND_RANK = {"delete": 0, "reverse": 1, "add": 2}


def listed_best_move(cache, structure, max_parents):
    """The move-list form of ``_best_move``: score every legal move in turn,
    as the F terms it adds summed in ascending order minus the F terms it
    removes summed in ascending order.  Returns the best (gain, move) and
    how many moves reach that gain."""

    def family(nodes):
        return cache.marginals(nodes) if nodes else 0.0

    best, ties = None, 0
    for move in neighbors(structure):
        rewrites = _new_parents(structure, move)
        if max_parents is not None:
            node, ps = rewrites[-1]
            if len(ps) > max_parents and len(ps) > len(structure.parents[node]):
                continue
        added, removed = [], []
        for node, ps in rewrites:
            old = structure.parents[node]
            added += [family((node, *ps)), family(old)]
            removed += [family(ps), family((node, *old))]
        gain = sum(sorted(added)) - sum(sorted(removed))
        key = (_KIND_RANK[move.kind], move.target, move.source)
        if best is None or gain > best[0]:
            best, ties = (gain, key, move), 1
        elif gain == best[0]:
            ties += 1
            if key < best[1]:
                best = (gain, key, move)
    return None if best is None else (best[0], best[2]), ties


class TestBestMove:
    @pytest.mark.parametrize("cap", [None, 0, 1, 2])
    def test_matches_move_list(self, rng, cap):
        # same gain bit for bit, same move, and the same families scored;
        # twin columns under a symmetric prior make exact gain ties, so the
        # (kind, target, source) key decides, and with no cases every gain
        # is 0.0, so it decides across kinds too
        twin_ties = 0
        for trial in range(30):
            n = int(rng.integers(3, 11))
            rows = rng.standard_normal((60, n)) @ rng.standard_normal((n, n))
            prior = random_prior(n, rng)
            if trial % 3 == 0:
                t = stats_of(rows)
            elif trial % 3 == 1:
                t = twin_column_stats(rows)
                prior = NormalWishart(2.0, np.zeros(n), n + 2.0, np.eye(n))
            else:
                t = zero_stats(n)
            vectorised, listed = _ScoreCache(prior, t), _ScoreCache(prior, t)
            structure = random_dag(n, rng, p=float(rng.uniform(0.0, 0.8)))
            for _ in range(6):
                for cache in (vectorised, listed):
                    for i, ps in enumerate(structure.parents):
                        cache.node_score(i, ps)
                found = _best_move(vectorised, structure, cap)
                expected, n_ties = listed_best_move(listed, structure, cap)
                assert vectorised.marginals._memo.keys() == listed.marginals._memo.keys()
                if expected is None:
                    assert found is None
                    break
                twin_ties += trial % 3 == 1 and n_ties > 1
                assert found[1] == expected[1]
                assert found[0] == expected[0]
                structure = apply_move(structure, found[1])
        assert twin_ties > 0

    def test_score_equivalent_moves_gain_equally(self, rng):
        # add u -> v and add v -> u with Pa(u) = Pa(v) reach Markov-equivalent
        # structures, so their gains are equal with ==, and a covered
        # reversal stays in its class, so it gains exactly 0
        pairs = covered = 0
        for _ in range(40):
            n = int(rng.integers(3, 9))
            rows = rng.standard_normal((80, n)) @ rng.standard_normal((n, n))
            cache = _ScoreCache(random_prior(n, rng), stats_of(rows))
            structure = random_dag(n, rng, p=float(rng.uniform(0.0, 0.6)))
            tables = {kind: (mask, gains) for kind, mask, gains in
                      _move_gains(cache, structure, None)}
            add_mask, add_gains = tables["add"]
            ps = structure.parents
            for u, v in combinations(range(n), 2):
                if set(ps[u]) == set(ps[v]) and u not in ps[v] and v not in ps[u]:
                    assert add_mask[u, v] and add_mask[v, u]
                    assert add_gains[u, v] == add_gains[v, u]
                    pairs += 1
            reverse_mask, reverse_gains = tables["reverse"]
            for u, v in _covered_edges(structure):
                assert reverse_mask[u, v]
                assert reverse_gains[u, v] == 0.0
                covered += 1
        assert pairs > 20 and covered > 20

    def test_no_legal_move(self, rng):
        prior = random_prior(1, rng)
        cache = _ScoreCache(prior, stats_of(rng.standard_normal((5, 1))))
        assert _best_move(cache, empty_structure(1), None) is None
        cache = _ScoreCache(random_prior(3, rng), stats_of(rng.standard_normal((5, 3))))
        assert _best_move(cache, empty_structure(3), 0) is None


@pytest.mark.parametrize("parent", [5, -1], ids=["past-n", "negative"])
def test_out_of_range_parent_rejected(rng, parent):
    bad = DagStructure(2, ((parent,), ()))
    with pytest.raises(BadParentIndex):
        to_cpdag(bad)
    with pytest.raises(BadParentIndex):
        _legal(bad)
    with pytest.raises(BadParentIndex):
        neighbors(bad)
    t = stats_of(rng.standard_normal((20, 2)))
    with pytest.raises(BadParentIndex):
        greedy_component_search(t, random_prior(2, rng), bad)


def rebuilt_gains(cache, parents, need):
    """``_ScoreCache.gains`` without the kept matrices: fresh terms on
    every call, each marked entry read through ``FamilyMarginals`` on its
    own."""

    def family(nodes):
        return cache.marginals(nodes) if nodes else 0.0

    n = len(parents)
    terms = np.full((2, n, n), np.nan)
    us, vs = np.nonzero(need)
    for u, v in zip(us.tolist(), vs.tolist()):
        ps = parents[v]
        toggled = tuple(p for p in ps if p != u) if u in ps else ps + (u,)
        terms[:, u, v] = family((v, *toggled)), family(toggled)
    nodes = np.array([[family((v, *ps)) for v, ps in enumerate(parents)],
                      [family(ps) for ps in parents]])
    return terms, nodes


class BoundedTrace(list):
    """A search trace that fails a search after ``limit`` accepted moves."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def append(self, step):
        assert len(self) < self.limit, "the search did not end"
        super().append(step)


class TestGreedySearch:
    def test_kept_gains_match_rebuilt_gains(self, rng, monkeypatch):
        # same structure and same steps, gains and totals compared with ==,
        # whether S is kept between steps or rebuilt on every step; escape
        # states read S too
        escapes = 0
        for cap in (None, 0, 1, 2, 3):
            for trial in range(12):
                n = int(rng.integers(2, 11))
                rows = rng.standard_normal((int(rng.integers(30, 300)), n))
                rows = rows @ rng.standard_normal((n, n))
                t = twin_column_stats(rows) if trial % 4 == 3 else stats_of(rows)
                prior = random_prior(n, rng)
                init = random_dag(n, rng, p=float(rng.uniform(0.0, 0.6)))
                kept_trace, rebuilt_trace = [], []
                kept = greedy_component_search(t, prior, init, cap, kept_trace)
                with monkeypatch.context() as patch:
                    patch.setattr(_ScoreCache, "gains", rebuilt_gains)
                    rebuilt = greedy_component_search(t, prior, init, cap, rebuilt_trace)
                assert kept == rebuilt
                assert kept_trace == rebuilt_trace
                escapes += any(step.sideways for step in kept_trace)
        assert escapes > 0

    def test_independent_data_stays_empty(self, rng):
        rows = rng.standard_normal((400, 3))
        prior = random_prior(3, rng)
        out = greedy_component_search(stats_of(rows), prior, empty_structure(3))
        assert out.arc_count() == 0

    def test_correlated_pair_gets_one_arc(self, rng):
        x0 = rng.standard_normal(500)
        rows = np.column_stack([x0, 2 * x0 + 0.1 * rng.standard_normal(500)])
        prior = random_prior(2, rng)
        out = greedy_component_search(stats_of(rows), prior, empty_structure(2))
        assert out.arc_count() == 1

    def test_accepted_steps_strictly_increase(self, rng):
        rows = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
        prior = random_prior(4, rng)
        trace = []
        greedy_component_search(stats_of(rows), prior, empty_structure(4), trace=trace)
        assert trace, "expected at least one accepted move"
        # improving steps gain more than the threshold; sideways class moves
        # must be followed by a strict improvement on the compound
        running = None
        for step in trace:
            if not step.sideways:
                assert step.gain > 0
            if running is not None and not step.sideways:
                assert step.total > running + 1e-9
            if not step.sideways:
                running = step.total

    def test_delta_equals_full_rescoring(self, rng):
        # criterion-6 style: every recorded total matches scoring from scratch
        prior = random_prior(4, rng)
        rows = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4))
        t = stats_of(rows)
        trace = []
        structure = empty_structure(4)
        final = greedy_component_search(t, prior, structure, trace=trace)
        for step in trace:
            structure = apply_move(structure, step.move)
            assert structure_score(prior, t, structure) == pytest.approx(
                step.total, abs=1e-10
            )
        assert structure == final

    def test_max_parents_cap(self, rng):
        rows = rng.standard_normal((300, 4)) @ rng.standard_normal((4, 4))
        prior = random_prior(4, rng)
        out = greedy_component_search(
            stats_of(rows), prior, empty_structure(4), max_parents=1
        )
        assert all(len(ps) <= 1 for ps in out.parents)

    def test_start_above_cap_deletes_but_never_grows_past_it(self, rng):
        # deletions are never capped, even when they leave a set above the
        # cap; only a parent set that a move grows must stay within it
        rows = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
        rows[:, 4] = rng.standard_normal(300)
        prior = random_prior(5, rng)
        trace = []
        structure = complete_structure(5)
        greedy_component_search(
            stats_of(rows), prior, structure, max_parents=1, trace=trace
        )
        deleted_above_cap = False
        for step in trace:
            nxt = apply_move(structure, step.move)
            for before, after in zip(structure.parents, nxt.parents):
                if len(after) > len(before):
                    assert len(after) <= 1
                elif step.move.kind == "delete" and len(after) < len(before):
                    deleted_above_cap |= len(after) > 1
            structure = nxt
        assert deleted_above_cap

    def test_sideways_escape_trace_pinned(self):
        # no single move improves after the ninth step; the escape reverses
        # the covered arc 2 -> 1 and then deletes 3 -> 1
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
        prior = random_prior(5, rng)
        trace = []
        greedy_component_search(stats_of(rows), prior, empty_structure(5), trace=trace)
        assert [(s.move.kind, s.move.source, s.move.target, s.sideways) for s in trace] == [
            ("add", 4, 1, False),
            ("add", 3, 2, False),
            ("add", 4, 3, False),
            ("add", 0, 1, False),
            ("add", 2, 1, False),
            ("add", 3, 1, False),
            ("add", 4, 2, False),
            ("add", 0, 2, False),
            ("add", 3, 0, False),
            ("reverse", 2, 1, True),
            ("delete", 3, 1, False),
        ]

    def test_escape_ends_when_totals_are_huge(self):
        # with alpha = 1e15 the totals are near -1.5e16, where equivalent
        # structures' re-derived totals differ by a few units of rounding;
        # read as a gain, that took the covered reversal 0 -> 2 and back
        # forever
        data, _ = sample(default_gold_standard().model, 200, 0)
        t = SuffStats(200.0, data.sum(axis=0), data.T @ data)
        prior = PriorSpec(alpha=1e15).normal_wishart(5)
        trace = BoundedTrace(1000)
        out = greedy_component_search(t, prior, empty_structure(5), trace=trace)
        assert out.arc_count() > 0

    def test_returns_local_maximum(self, rng):
        rows = rng.standard_normal((250, 3)) @ rng.standard_normal((3, 3))
        prior = random_prior(3, rng)
        t = stats_of(rows)
        out = greedy_component_search(t, prior, empty_structure(3))
        base = structure_score(prior, t, out)
        for move in neighbors(out):
            assert structure_score(prior, t, apply_move(out, move)) <= base + 1e-9


class TestSearchAllComponents:
    def test_single_component_identical(self, rng):
        rows = rng.standard_normal((200, 3))
        prior = random_prior(3, rng)
        ms = MixtureStats((stats_of(rows),), 200.0)
        via_all = search_all_components(ms, (empty_structure(3),), (prior,))
        direct = greedy_component_search(stats_of(rows), prior, empty_structure(3))
        assert via_all == (direct,)

    def test_disjoint_dependence_patterns(self, rng):
        # one component couples (0,1), the other couples (1,2)
        z = rng.standard_normal(400)
        rows_a = np.column_stack([z, z + 0.1 * rng.standard_normal(400), rng.standard_normal(400)])
        w = rng.standard_normal(400)
        rows_b = np.column_stack([rng.standard_normal(400), w, w + 0.1 * rng.standard_normal(400)])
        data = np.vstack([rows_a, rows_b])
        labels = np.repeat([0, 1], 400)
        ms = labeled_stats(data, labels, 2)
        from dagmix.bayes import NormalWishart

        prior = NormalWishart(2.0, np.zeros(3), 5.0, np.eye(3))
        out = search_all_components(ms, (empty_structure(3),) * 2, (prior,) * 2)

        def adjacent(s, u, v):
            return u in s.parents[v] or v in s.parents[u]

        assert adjacent(out[0], 0, 1) and not adjacent(out[0], 1, 2)
        assert adjacent(out[1], 1, 2) and not adjacent(out[1], 0, 1)

    def test_order_independent(self, rng):
        data = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 3))
        labels = rng.integers(0, 2, 300)
        ms = labeled_stats(data, labels, 2)
        prior = random_prior(3, rng)
        first = search_all_components(ms, (empty_structure(3),) * 2, (prior,) * 2)
        second = search_all_components(ms, (empty_structure(3),) * 2, (prior,) * 2)
        assert first == second


def equivalence_class(s: DagStructure) -> set[frozenset]:
    """Arc sets of every DAG equivalent to ``s``.

    Covered-arc reversals connect an equivalence class (Chickering 1995),
    so a search over them from ``s`` reaches every member.
    """
    start = frozenset(s.arcs())
    seen = {start}
    todo = [start]
    while todo:
        arcs = todo.pop()
        parents = [{u for u, t in arcs if t == v} for v in range(s.n)]
        for u, v in arcs:
            if parents[v] == parents[u] | {u}:
                member = arcs - {(u, v)} | {(v, u)}
                if member not in seen:
                    seen.add(member)
                    todo.append(member)
    return seen


class TestCpdag:
    def test_single_arc_undirected(self):
        c = to_cpdag(DagStructure(2, ((), (0,))))
        assert not c.directed
        assert c.undirected == frozenset({(0, 1)})

    def test_collider_compelled(self):
        c = to_cpdag(DagStructure(3, ((), (), (0, 1))))
        assert c.directed == frozenset({(0, 2), (1, 2)})
        assert not c.undirected

    def test_collider_tail_compelled(self):
        # 0 -> 2 <- 1 with 2 -> 3: the tail arc is compelled too
        c = to_cpdag(DagStructure(4, ((), (), (0, 1), (2,))))
        assert (2, 3) in c.directed

    def test_equivalence_iff_same_cpdag(self, rng):
        dags = [random_dag(5, rng, p=0.45) for _ in range(40)]
        for i in range(len(dags)):
            for j in range(i + 1, len(dags)):
                oracle = skeleton_and_vstructs(dags[i]) == skeleton_and_vstructs(dags[j])
                assert oracle == (to_cpdag(dags[i]) == to_cpdag(dags[j]))

    @pytest.mark.parametrize("n", [5, 6])
    def test_labels_match_equivalence_class(self, rng, n):
        # compelled arcs are exactly those every member of the class shares
        for _ in range(30):
            s = random_dag(n, rng, p=0.5)
            shared = frozenset.intersection(*equivalence_class(s))
            c = to_cpdag(s)
            assert c.directed == shared
            assert c.undirected == {
                (min(u, v), max(u, v)) for u, v in s.arcs() if (u, v) not in shared
            }

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            to_cpdag(DagStructure(3, ((2,), (0,), (1,))))


def dag_space_difference(learned: DagStructure, gold: DagStructure) -> int:
    """Oracle: 0-1 BFS over DAGs, where covered reversals cost 0 and every
    other legal move costs 1, stopping at the first DAG in gold's class."""
    target = to_cpdag(gold)
    dist = {learned.parents: 0}
    dq = deque([learned])
    done = set()
    while dq:
        state = dq.popleft()
        if state.parents in done:
            continue
        done.add(state.parents)
        d = dist[state.parents]
        if to_cpdag(state) == target:
            return d
        covered = set(_covered_edges(state))
        for move in neighbors(state):
            cost = int(not (move.kind == "reverse" and (move.source, move.target) in covered))
            nxt = apply_move(state, move)
            if dist.get(nxt.parents, d + cost + 1) <= d + cost:
                continue
            dist[nxt.parents] = d + cost
            if cost == 0:
                dq.appendleft(nxt)
            else:
                dq.append(nxt)
    raise AssertionError("DAG space is connected; target must be reachable")


class TestStructuralDifference:
    def test_identical_zero(self, rng):
        s = random_dag(4, rng)
        assert structural_difference(s, s) == 0

    def test_reversed_pair_zero(self):
        assert structural_difference(
            DagStructure(2, ((), (0,))), DagStructure(2, ((1,), ()))
        ) == 0

    def test_empty_vs_chain(self):
        chain = DagStructure(3, ((), (0,), (1,)))
        assert structural_difference(empty_structure(3), chain) == 2

    def test_extra_adjacency_counts_once(self):
        # one deletion separates these: the extra 0-1 arc sits in a class
        # member whose removal lands exactly in the target class
        learned = DagStructure(5, ((1, 2), (2,), (4,), (2,), ()))
        gold = DagStructure(5, ((), (), (0, 1), (2,), (2,)))
        assert structural_difference(learned, gold) == 1

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            structural_difference(empty_structure(2), empty_structure(3))

    @pytest.mark.parametrize(
        "bad",
        [DagStructure(2, ((5,), ())), DagStructure(3, ((), ()))],
        ids=["parent-out-of-range", "short-parent-list"],
    )
    def test_malformed_structure_rejected(self, bad):
        good = empty_structure(bad.n)
        for learned, gold in ((bad, good), (good, bad)):
            with pytest.raises(BadParentIndex):
                structural_difference(learned, gold)

    @pytest.mark.parametrize("n, pairs, p", [(3, 25, 0.5), (4, 25, 0.45), (5, 4, 0.35)])
    def test_matches_dag_space_bfs(self, rng, n, pairs, p):
        for _ in range(pairs):
            a, b = random_dag(n, rng, p=p), random_dag(n, rng, p=p)
            assert structural_difference(a, b) == dag_space_difference(a, b)

    def test_class_member_budget(self, monkeypatch):
        # the cap counts class members walked: an equivalent pair walks
        # none, and the empty graph walks a class per step on its six
        # additions to the complete one
        monkeypatch.setattr(search_module, "_DIFFERENCE_STATE_CAP", 5)
        chain = DagStructure(4, ((), (0,), (1,), (2,)))
        assert structural_difference(chain, chain) == 0
        with pytest.raises(DimensionMismatch):
            structural_difference(empty_structure(4), complete_structure(4))

    def test_pseudometric(self, rng):
        dags = [random_dag(4, rng, p=0.4) for _ in range(6)]
        d = {}
        for i in range(6):
            for j in range(6):
                d[i, j] = structural_difference(dags[i], dags[j])
        for i in range(6):
            assert d[i, i] == 0
            for j in range(6):
                assert d[i, j] == d[j, i]
                for k in range(6):
                    assert d[i, k] <= d[i, j] + d[j, k]

    def test_zero_iff_equivalent(self, rng):
        for _ in range(20):
            a, b = random_dag(4, rng, p=0.5), random_dag(4, rng, p=0.5)
            assert (structural_difference(a, b) == 0) == (to_cpdag(a) == to_cpdag(b))
