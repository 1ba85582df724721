from collections import deque
from itertools import combinations, islice

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dagmix.search as search_module
import dagmix.engine as engine_module
from dagmix.bayes import DirichletPrior, FamilyMarginals, NormalWishart, local_score
from dagmix.engine import FitConfig, PriorSpec, Schedule, fit
from dagmix.errors import BadParentIndex, CycleDetected, DimensionMismatch
from dagmix.harness import default_gold_standard
from dagmix.model import (
    DagStructure,
    MdagModel,
    complete_structure,
    empty_structure,
    sample,
)
from dagmix.scoring import complete_model_score
from dagmix.search import (
    _ESCAPE_BUDGET,
    _KINDS,
    SCORE_EPS,
    ArcMove,
    _best_move,
    _gains,
    _Graph,
    _member_chunks,
    _need,
    _new_parents,
    _ScoreCache,
    apply_move,
    greedy_component_search,
    neighbors,
    search_all_components,
    structural_difference,
    to_cpdag,
)
from dagmix.stats import SuffStats
from conftest import (
    labeled_stats,
    mixture_stats,
    oracle_class_walk,
    oracle_covered_edges,
    oracle_legal,
    oracle_search,
    oracle_structural_difference,
    random_dag,
    random_gaussian_dag,
    structure_score,
    zero_stats,
)
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
        moves = neighbors(empty_structure(2).parents)
        assert {(m.kind, m.source, m.target) for m in moves} == {
            ("add", 0, 1),
            ("add", 1, 0),
        }

    def test_single_arc(self):
        moves = {(m.kind, m.source, m.target) for m in neighbors(((), (0,)))}
        assert moves == {("delete", 0, 1), ("reverse", 0, 1)}

    @pytest.mark.parametrize("n, p", [(5, 0.45), (7, 0.5)])
    def test_against_brute_force_legality(self, rng, n, p):
        # every produced move keeps the graph acyclic, and no legal move is
        # missed; at n=7, p=0.5 paths of three or more arcs are common
        for _ in range(15):
            s = random_dag(n, rng, p=p)
            produced = {(m.kind, m.source, m.target) for m in neighbors(s.parents)}
            for u in range(n):
                for v in range(n):
                    if u == v:
                        continue
                    for kind in ("add", "delete", "reverse"):
                        if kind == "add" and u in s.parents[v]:
                            continue
                        if kind in ("delete", "reverse") and u not in s.parents[v]:
                            continue
                        candidate = apply_move(s.parents, ArcMove(kind, u, v))
                        g = nx.DiGraph()
                        g.add_nodes_from(range(n))
                        g.add_edges_from((p, c) for c, ps in enumerate(candidate) for p in ps)
                        legal = nx.is_directed_acyclic_graph(g)
                        assert ((kind, u, v) in produced) == legal

    def test_chain_middle_reverse_allowed(self):
        moves = {(m.kind, m.source, m.target) for m in neighbors(((), (0,), (1,)))}
        assert ("reverse", 0, 1) in moves
        assert ("reverse", 1, 2) in moves


_KIND_RANK = {"delete": 0, "reverse": 1, "add": 2}


def listed_best_move(cache, parents, max_parents):
    """The move-list form of ``_best_move``: score every legal move in turn,
    as the F terms it adds summed in ascending order minus the F terms it
    removes summed in ascending order.  Returns the best (gain, move) and
    how many moves reach that gain."""

    def family(nodes):
        return cache.marginals.fill([nodes])[0]

    best, ties = None, 0
    for move in neighbors(parents):
        rewrites = _new_parents(parents, move)
        if max_parents is not None:
            node, ps = rewrites[-1]
            if len(ps) > max_parents and len(ps) > len(parents[node]):
                continue
        added, removed = [], []
        for node, ps in rewrites:
            old = parents[node]
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


def listed_gains(cache, parents, max_parents):
    """Every legal move's gain from ``_gains``, by (kind, source, target)."""
    graph = _Graph.of(parents, max_parents)
    legal = graph.legal[None]
    gains = _gains(cache.terms(cache.ids(parents)[None], _need(legal)), legal)[0]
    return {(_KINDS[kind], u, v): gains[np.ravel_multi_index((kind, v, u), legal.shape[1:])]
            for kind, v, u in zip(*np.nonzero(legal[0]))}


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
            parents = random_dag(n, rng, p=float(rng.uniform(0.0, 0.8))).parents
            for _ in range(6):
                for cache in (vectorised, listed):
                    for i, ps in enumerate(parents):
                        local_score(cache.marginals, i, ps)
                found = _best_move(vectorised, _Graph.of(parents, cap))
                expected, n_ties = listed_best_move(listed, parents, cap)
                assert vectorised.marginals._memo.keys() == listed.marginals._memo.keys()
                if expected is None:
                    assert found is None
                    break
                twin_ties += trial % 3 == 1 and n_ties > 1
                assert found[1] == expected[1]
                assert found[0] == expected[0]
                parents = apply_move(parents, found[1])
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
            ps = random_dag(n, rng, p=float(rng.uniform(0.0, 0.6))).parents
            gains = listed_gains(cache, ps, None)
            for u, v in combinations(range(n), 2):
                if set(ps[u]) == set(ps[v]) and u not in ps[v] and v not in ps[u]:
                    assert ("add", u, v) in gains and ("add", v, u) in gains
                    assert gains["add", u, v] == gains["add", v, u]
                    pairs += 1
            for u, v in oracle_covered_edges(ps):
                assert ("reverse", u, v) in gains
                assert gains["reverse", u, v] == 0.0
                covered += 1
        assert pairs > 20 and covered > 20

    def test_no_legal_move(self, rng):
        prior = random_prior(1, rng)
        cache = _ScoreCache(prior, stats_of(rng.standard_normal((5, 1))))
        assert _best_move(cache, _Graph.of(empty_structure(1).parents)) is None
        cache = _ScoreCache(random_prior(3, rng), stats_of(rng.standard_normal((5, 3))))
        assert _best_move(cache, _Graph.of(empty_structure(3).parents, 0)) is None


@pytest.mark.parametrize("parent", [5, -1], ids=["past-n", "negative"])
def test_out_of_range_parent_rejected(parent):
    # the constructor rejects it, so no search or class walk can meet one
    with pytest.raises(BadParentIndex):
        DagStructure(2, ((parent,), ()))


def rebuilt_terms(cache, ids, need):
    """``_ScoreCache.terms`` without the kept values: fresh terms for
    every state of the stack on every call, each marked entry read through
    ``FamilyMarginals`` on its own, as the set its row names toggled at the
    entry; the store is never read or filled."""

    def family(nodes):
        return cache.marginals.fill([tuple(nodes)])[0]

    terms = np.full(ids.shape + ids.shape[-1:], np.nan)
    for j, v, u in zip(*np.nonzero(need)):
        for side in (0, 1):
            terms[j, side, v, u] = family(set(cache._keys[ids[j, side, v]]) ^ {u})
    return terms


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
                kept_trace, rebuilt_trace = BoundedTrace(5000), BoundedTrace(5000)
                kept = greedy_component_search(t, prior, init, cap, kept_trace)
                with monkeypatch.context() as patch:
                    patch.setattr(_ScoreCache, "terms", rebuilt_terms)
                    rebuilt = greedy_component_search(t, prior, init, cap, rebuilt_trace)
                assert kept == rebuilt
                assert kept_trace == rebuilt_trace
                escapes += any(step.sideways for step in kept_trace)
        assert escapes > 0

    def test_a_fill_that_fills_nothing_is_an_error(self, monkeypatch):
        # a fill round must make progress: a fill that leaves a needed term
        # missing raises, in a class walk, which would otherwise find the
        # same lacking member again and again, and in the climb
        rng = np.random.default_rng(1)  # escapes, as in the pinned trace below
        rows = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
        t, prior = stats_of(rows), random_prior(5, rng)
        fill, escape, walking = _ScoreCache._fill, search_module._escape, []

        def watched_escape(cache, graph):
            walking.append(graph)
            return escape(cache, graph)

        monkeypatch.setattr(search_module, "_escape", watched_escape)
        monkeypatch.setattr(_ScoreCache, "_fill",
                            lambda cache, ids, lack: None if walking else fill(cache, ids, lack))
        with pytest.raises(AssertionError, match="a fill left a needed term missing"):
            greedy_component_search(t, prior, empty_structure(5))
        assert walking
        monkeypatch.setattr(_ScoreCache, "_fill", lambda cache, ids, lack: None)
        with pytest.raises(AssertionError, match="a fill left a needed term missing"):
            greedy_component_search(t, prior, empty_structure(5))

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
            structure = DagStructure(4, apply_move(structure.parents, step.move))
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
        parents = structure.parents
        for step in trace:
            nxt = apply_move(parents, step.move)
            for before, after in zip(parents, nxt):
                if len(after) > len(before):
                    assert len(after) <= 1
                elif step.move.kind == "delete" and len(after) < len(before):
                    deleted_above_cap |= len(after) > 1
            parents = nxt
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
        for move in neighbors(out.parents):
            neighbor = DagStructure(3, apply_move(out.parents, move))
            assert structure_score(prior, t, neighbor) <= base + 1e-9


def test_search_states_are_not_structures(monkeypatch):
    # search walks plain parent tuples: a greedy search builds (and checks)
    # only the structure it returns, escape states included, and the
    # structural difference builds none
    rng = np.random.default_rng(1)  # escapes, as in the pinned trace above
    rows = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
    prior = random_prior(5, rng)
    start, gold = empty_structure(5), default_gold_standard().model.components[2].structure
    built = []
    post_init = DagStructure.__post_init__

    def counted(self):
        built.append(self.parents)
        post_init(self)

    monkeypatch.setattr(DagStructure, "__post_init__", counted)
    trace = []
    out = greedy_component_search(stats_of(rows), prior, start, trace=trace)
    assert any(step.sideways for step in trace)
    assert built == [out.parents]
    built.clear()
    assert structural_difference(start, gold) == 4
    assert built == []


def test_each_caller_reads_its_families_in_one_fill(rng, monkeypatch):
    # complete_model_score fills each Gaussian component's node families in
    # one call, and a search's first fill holds every family of its start
    calls = []
    fill = FamilyMarginals.fill

    def recorded(self, families):
        families = [tuple(sorted(f)) for f in families]
        calls.append(set(families))
        return fill(self, families)

    def families_of(structure):
        return {tuple(sorted(f)) for v, ps in enumerate(structure.parents) for f in ((v, *ps), ps)}

    monkeypatch.setattr(FamilyMarginals, "fill", recorded)
    n = 6
    prior = random_prior(n, rng)
    rows = rng.standard_normal((90, n)) @ rng.standard_normal((n, n))
    structures = [random_dag(n, rng, p=0.5) for _ in range(3)]
    ms = mixture_stats(tuple(stats_of(rows[c::3]) for c in range(3)))
    complete_model_score(ms, structures, prior, DirichletPrior(np.ones(3)))
    assert calls == [families_of(s) for s in structures]
    calls.clear()
    greedy_component_search(stats_of(rows), prior, structures[0])
    assert calls[0] == families_of(structures[0])


def test_a_start_from_empty_asks_for_each_pair_family_once(rng, monkeypatch):
    # F({u, v}) is entry v of row R({u}) and entry u of row R({v})
    calls = []
    fill = FamilyMarginals.fill

    def recorded(self, families):
        families = [tuple(sorted(f)) for f in families]
        calls.append(families)
        return fill(self, families)

    monkeypatch.setattr(FamilyMarginals, "fill", recorded)
    n = 6
    rows = rng.standard_normal((90, n)) @ rng.standard_normal((n, n))
    greedy_component_search(stats_of(rows), random_prior(n, rng), empty_structure(n))
    first = next(families for families in calls if any(len(f) == 2 for f in families))
    assert sorted(f for f in first if len(f) == 2) == list(combinations(range(n), 2))


class TestSearchAllComponents:
    def test_single_component_identical(self, rng):
        rows = rng.standard_normal((200, 3))
        prior = random_prior(3, rng)
        ms = mixture_stats((stats_of(rows),))
        via_all = search_all_components(ms, (empty_structure(3),), prior)
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
        from dagmix.bayes import NormalWishart, local_score

        prior = NormalWishart(2.0, np.zeros(3), 5.0, np.eye(3))
        out = search_all_components(ms, (empty_structure(3),) * 2, prior)

        def adjacent(s, u, v):
            return u in s.parents[v] or v in s.parents[u]

        assert adjacent(out[0], 0, 1) and not adjacent(out[0], 1, 2)
        assert adjacent(out[1], 1, 2) and not adjacent(out[1], 0, 1)

    def test_order_independent(self, rng):
        data = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 3))
        labels = rng.integers(0, 2, 300)
        ms = labeled_stats(data, labels, 2)
        prior = random_prior(3, rng)
        first = search_all_components(ms, (empty_structure(3),) * 2, prior)
        second = search_all_components(ms, (empty_structure(3),) * 2, prior)
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
        c = to_cpdag(((), (0,)))
        assert not c.directed
        assert c.undirected == frozenset({(0, 1)})

    def test_collider_compelled(self):
        c = to_cpdag(((), (), (0, 1)))
        assert c.directed == frozenset({(0, 2), (1, 2)})
        assert not c.undirected

    def test_collider_tail_compelled(self):
        # 0 -> 2 <- 1 with 2 -> 3: the tail arc is compelled too
        c = to_cpdag(((), (), (0, 1), (2,)))
        assert (2, 3) in c.directed

    def test_equivalence_iff_same_cpdag(self, rng):
        dags = [random_dag(5, rng, p=0.45) for _ in range(40)]
        for i in range(len(dags)):
            for j in range(i + 1, len(dags)):
                oracle = skeleton_and_vstructs(dags[i]) == skeleton_and_vstructs(dags[j])
                assert oracle == (to_cpdag(dags[i].parents) == to_cpdag(dags[j].parents))

    @pytest.mark.parametrize("n", [5, 6])
    def test_labels_match_equivalence_class(self, rng, n):
        # compelled arcs are exactly those every member of the class shares
        for _ in range(30):
            s = random_dag(n, rng, p=0.5)
            shared = frozenset.intersection(*equivalence_class(s))
            c = to_cpdag(s.parents)
            assert c.directed == shared
            assert c.undirected == {
                (min(u, v), max(u, v)) for u, v in s.arcs() if (u, v) not in shared
            }

    def test_cycle_rejected(self):
        with pytest.raises(CycleDetected):
            to_cpdag(((2,), (0,), (1,)))


def dag_space_difference(learned: DagStructure, gold: DagStructure) -> int:
    """Oracle: 0-1 BFS over DAGs, where covered reversals cost 0 and every
    other legal move costs 1, stopping at the first DAG in gold's class."""
    target = to_cpdag(gold.parents)
    dist = {learned.parents: 0}
    dq = deque([learned.parents])
    done = set()
    while dq:
        state = dq.popleft()
        if state in done:
            continue
        done.add(state)
        d = dist[state]
        if to_cpdag(state) == target:
            return d
        covered = set(oracle_covered_edges(state))
        for move in neighbors(state):
            cost = int(not (move.kind == "reverse" and (move.source, move.target) in covered))
            nxt = apply_move(state, move)
            if dist.get(nxt, d + cost + 1) <= d + cost:
                continue
            dist[nxt] = d + cost
            if cost == 0:
                dq.appendleft(nxt)
            else:
                dq.append(nxt)
    raise AssertionError("DAG space is connected; target must be reachable")


@st.composite
def sparse_dags(draw, n):
    """DAGs over n nodes with at most n arcs, each from an earlier to a
    later node of a drawn order; denser pairs at n = 7 can take the
    reference A* tens of seconds."""
    order = draw(st.permutations(range(n)))
    arcs = [(order[i], order[j]) for j in range(n) for i in range(j)]
    chosen = draw(st.lists(st.sampled_from(arcs), unique=True, max_size=n))
    return DagStructure(n, tuple(tuple(sorted(u for u, w in chosen if w == v)) for v in range(n)))


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
        "n, parents",
        [(2, ((5,), ())), (3, ((), ()))],
        ids=["parent-out-of-range", "short-parent-list"],
    )
    def test_malformed_structure_rejected(self, n, parents):
        # the structure never exists, so neither argument can be one
        with pytest.raises(BadParentIndex):
            structural_difference(DagStructure(n, parents), empty_structure(n))
        with pytest.raises(BadParentIndex):
            structural_difference(empty_structure(n), DagStructure(n, parents))

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

    @given(st.integers(2, 7).flatmap(lambda n: st.tuples(sparse_dags(n), sparse_dags(n))))
    def test_matches_keyed_at_push(self, pair):
        assert structural_difference(*pair) == oracle_structural_difference(*pair)

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
            same_class = to_cpdag(a.parents) == to_cpdag(b.parents)
            assert (structural_difference(a, b) == 0) == same_class


# --- the kept search state against the search that rebuilds it ----------------


def library_search(t, prior, init, cap):
    """``greedy_component_search`` with its trace and the families its
    marginals memoised; a search that runs past 5000 moves fails."""
    made = []
    init_marginals = FamilyMarginals.__init__

    def recorded(self, *args):
        init_marginals(self, *args)
        made.append(self)

    trace = BoundedTrace(5000)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FamilyMarginals, "__init__", recorded)
        out = greedy_component_search(t, prior, init, cap, trace)
    (marginals,) = made
    return out, trace, set(marginals._memo)


def assert_matches_oracle(t, prior, init, cap):
    """The same structure, the same steps (moves, gains and totals compared
    with ==) and the same families scored as the oracle search; returns the
    trace."""
    out, trace, memo = library_search(t, prior, init, cap)
    oracle_trace = []
    expected, oracle_memo = oracle_search(t, prior, init, cap, oracle_trace)
    assert out == expected
    assert trace == oracle_trace
    assert memo == oracle_memo
    return trace


def mixture_triples(monkeypatch, data, config):
    """The (statistics, start, prior, cap) of every component search of one
    ``fit``."""
    searches = []
    real = engine_module.search_all_components

    def recorded(mix_stats, structures, prior, max_parents=None, traces=None):
        searches.extend((t, s, prior, max_parents)
                        for t, s in zip(mix_stats.triples, structures))
        return real(mix_stats, structures, prior, max_parents, traces)

    monkeypatch.setattr(engine_module, "search_all_components", recorded)
    fit(data, config)
    return searches


def sparse_mixture(n, k, rng):
    """k components over n variables, each node with two parents earlier
    in a random order (the first two nodes with fewer)."""
    components = []
    for _ in range(k):
        order = rng.permutation(n)
        parents = [()] * n
        for i in range(1, n):
            parents[order[i]] = tuple(sorted(rng.choice(order[:i], min(i, 2), replace=False)))
        components.append(random_gaussian_dag(DagStructure(n, tuple(parents)), rng))
    return MdagModel(np.full(k, 1.0 / k), tuple(components))


class TestAgainstOracle:
    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
    def test_small_graphs(self, rng, cap):
        # empty, random and complete starts; fitted, twin-column and
        # zero-count statistics
        escapes = 0
        for n in range(2, 13):
            rows = rng.standard_normal((int(rng.integers(30, 300)), n))
            rows = rows @ rng.standard_normal((n, n))
            kind = (n + (cap or 0)) % 3
            t = (stats_of(rows), twin_column_stats(rows), zero_stats(n))[kind]
            prior = random_prior(n, rng)
            if kind == 1:
                prior = NormalWishart(2.0, np.zeros(n), n + 2.0, np.eye(n))
            for init in (empty_structure(n), random_dag(n, rng, p=0.4), complete_structure(n)):
                trace = assert_matches_oracle(t, prior, init, cap)
                escapes += any(step.sideways for step in trace)
        assert cap == 0 or escapes > 0

    @pytest.mark.parametrize("cap", [None, 2])
    def test_forty_nodes(self, rng, cap):
        model = sparse_mixture(40, 1, rng)
        data, _ = sample(model, 400, rng)
        t = stats_of(data)
        prior = PriorSpec().normal_wishart(40)
        assert_matches_oracle(t, prior, random_dag(40, rng, p=0.05), cap)

    def test_gold_fit_triples(self, monkeypatch):
        data, _ = sample(default_gold_standard().model, 600, 0)
        config = FitConfig(k=3, seed=0, max_outer=1, schedule=Schedule.parse("((EM)^5 Ec S* M)"))
        searches = mixture_triples(monkeypatch, data, config)
        assert len(searches) == 3
        for t, init, prior, cap in searches:
            assert_matches_oracle(t, prior, init, cap)

    def test_forty_node_fit_triples(self, monkeypatch):
        rng = np.random.default_rng(7)
        data, _ = sample(sparse_mixture(40, 3, rng), 900, rng)
        config = FitConfig(k=3, seed=0, max_outer=1, max_parents=2,
                           schedule=Schedule.parse("((EM)^3 Ec S* M)"))
        searches = mixture_triples(monkeypatch, data, config)
        assert len(searches) == 3
        watch, escapes = EscapeWatch(monkeypatch), 0
        for t, init, prior, cap in searches:
            watch.walks.clear()
            watch.escapes.clear()
            assert_matches_oracle(t, prior, init, cap)
            # 40-node chunks start at one member: a walk that escapes at
            # member e has built at most max(1, 2 (e - 1)), so one that
            # escapes at its second member builds no more than a walk
            # member by member
            for walked, (found, rounds) in zip(watch.walks, watch.escapes, strict=True):
                if found:
                    e = sum(size for _, size, _ in rounds[:-1]) + rounds[-1][2] + 1
                    assert walked - 1 <= max(1, 2 * (e - 1))
                    escapes += 1
        assert escapes > 0


class EscapeWatch:
    """Records, for every escape of the searches run while it is set, the
    rounds of its stacked evaluation: whether the round's first member was
    filled, how many members the round held, and the first of them whose
    best move gains more than SCORE_EPS (None if none); for every class
    walk, how many members it yielded; and how many fills within escapes
    scored no family the memo lacked (``idle_fills``)."""

    def __init__(self, monkeypatch):
        self.escapes, self.walks, self._rounds, self._filled = [], [], None, False
        self.idle_fills = 0
        terms, fill = _ScoreCache.terms, _ScoreCache._fill
        gains_of, escape, walk = (search_module._gains, search_module._escape,
                                  search_module._class_walk)

        def watched_fill(cache, *args):
            self._filled = True
            memoised = len(cache.marginals._memo)
            fill(cache, *args)
            if self._rounds is not None:
                self.idle_fills += len(cache.marginals._memo) == memoised

        def watched_terms(cache, ids, need):
            self._filled = False
            out = terms(cache, ids, need)
            if self._rounds is not None:
                self._rounds.append([self._filled, len(out), None])
            return out

        def watched_gains(terms, legal):
            gains = gains_of(terms, legal)
            if self._rounds is not None:
                hits = np.flatnonzero(gains.max(axis=1) > SCORE_EPS)
                self._rounds[-1][2] = int(hits[0]) if len(hits) else None
            return gains

        def watched_escape(cache, graph):
            self._rounds = []
            found = escape(cache, graph)
            self.escapes.append((found is not None, self._rounds))
            self._rounds = None
            return found

        def watched_walk(parents):
            self.walks.append(0)
            for member in walk(parents):
                self.walks[-1] += 1
                yield member

        monkeypatch.setattr(_ScoreCache, "terms", watched_terms)
        monkeypatch.setattr(_ScoreCache, "_fill", watched_fill)
        monkeypatch.setattr(search_module, "_gains", watched_gains)
        monkeypatch.setattr(search_module, "_escape", watched_escape)
        monkeypatch.setattr(search_module, "_class_walk", watched_walk)

    def late_escapes(self):
        """(escapes whose improving member follows a member that needed a
        fill, escapes whose improving member needed one itself)."""
        after = at = 0
        for found, rounds in self.escapes:
            if found:
                filled, _, hit = rounds[-1]
                at += filled and hit == 0
                after += any(r[0] for r in rounds[:-1]) or (filled and hit > 0)
        return after, at


class TestLongWalks:
    @pytest.mark.parametrize("cap", [None, 0, 1, 2, 3])
    def test_late_escapes_and_cut_walks_match_the_oracle(self, cap, monkeypatch):
        # dense starts have large classes, so walks run long: escapes whose
        # improving member comes after members that needed a fill, escapes
        # at a member that needed one, and walks the budget cuts, on fitted,
        # twin-column and zero-count statistics drawn as in TestAgainstOracle
        rng = np.random.default_rng(0)
        watch = EscapeWatch(monkeypatch)
        for n in range(4, 9):
            rows = rng.standard_normal((int(rng.integers(30, 300)), n))
            rows = rows @ rng.standard_normal((n, n))
            kind = (n + (cap or 0)) % 3
            t = (stats_of(rows), twin_column_stats(rows), zero_stats(n))[kind]
            prior = random_prior(n, rng)
            if kind == 1:
                prior = NormalWishart(2.0, np.zeros(n), n + 2.0, np.eye(n))
            for init in (empty_structure(n), random_dag(n, rng, p=0.7), complete_structure(n)):
                assert_matches_oracle(t, prior, init, cap)
        after, at = watch.late_escapes()
        assert after > 0 and at > 0
        assert _ESCAPE_BUDGET in watch.walks
        # memoised terms are copied in before a round, so a walk fills a
        # member only for a family never scored
        assert watch.idle_fills == 0

    def test_budget_cuts_the_walk_of_a_complete_dag(self, rng, monkeypatch):
        # six equicorrelated variables: every arc of the complete DAG is
        # needed, so no delete gains and it is a local maximum; its class has
        # 720 members, and the walk stops at the budget
        rows = rng.multivariate_normal(np.zeros(6), 0.1 * np.eye(6) + 0.9, 2000)
        watch = EscapeWatch(monkeypatch)
        trace = assert_matches_oracle(stats_of(rows), PriorSpec().normal_wishart(6),
                                      complete_structure(6), None)
        assert trace == [] and watch.walks == [_ESCAPE_BUDGET]


def closure_state(parents):
    """(arc, reach) in the search's layout, row v for node v, from
    networkx: arc[v, u] iff u -> v, reach[v, u] iff u ~> v."""
    n = len(parents)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((u, v) for v, ps in enumerate(parents) for u in ps)
    arc = np.zeros((n, n), dtype=bool)
    reach = np.zeros((n, n), dtype=bool)
    for u, v in g.edges:
        arc[v, u] = True
    for u, v in nx.transitive_closure_dag(g).edges:
        reach[v, u] = True
    return arc, reach


def capped_legal(parents, cap):
    """``oracle_legal``'s delete, reverse and add masks under the cap, in
    the search's layout: stacked in ``_KINDS`` order, row v for the moves
    into v."""
    add, delete, reverse = oracle_legal(parents)
    if cap is not None:
        grows = np.array([len(ps) < cap for ps in parents])
        add &= grows[None, :]
        reverse &= grows[:, None]
    return np.stack((delete.T, reverse.T, add.T))


def assert_state_from_scratch(graph):
    arc, reach = closure_state(graph.parents)
    assert np.array_equal(graph.arc, arc)
    assert np.array_equal(graph.reach, reach)
    assert np.array_equal(graph.legal, capped_legal(graph.parents, graph.cap))


def assert_walk_from_scratch(graph):
    """The class members that ``_member_chunks`` derives from the member
    each was reached from are the oracle walk's, in its order and within
    the budget; each one's masks equal ``oracle_legal`` on its parent sets
    under the cap, and its row ids name the rows of its own families."""
    n = len(graph.parents)
    cache = _ScoreCache(NormalWishart(1.0, np.zeros(n), n + 2.0, np.eye(n)), zero_stats(n))
    walked = []
    for chunk, legal, ids in _member_chunks(graph, cache):
        for (state, _, _), masks, rows in zip(chunk, legal, ids, strict=True):
            walked.append(state)
            assert np.array_equal(masks, capped_legal(state, graph.cap))
            assert rows.tolist() == [
                [cache._index[tuple(sorted(ps + (v,)))] for v, ps in enumerate(state)],
                [cache._index[ps] for ps in state],
            ]
    assert walked == [state for state, _ in
                      islice(oracle_class_walk(graph.parents), 1, _ESCAPE_BUDGET)]


class TestKeptState:
    @given(st.integers(2, 8), st.sampled_from([None, 0, 1, 2, 3]), st.integers(0, 2**32 - 1),
           st.lists(st.integers(0, 10**6), max_size=15))
    def test_moves_and_class_walks_keep_the_closure(self, n, cap, seed, picks):
        # along random legal adds, deletes and reversals, and along the class
        # walk of the last state, the arc and reachability matrices and the
        # legality masks kept from the state before equal a closure and
        # masks computed from scratch, under any cap
        graph = _Graph.of(random_dag(n, np.random.default_rng(seed), p=0.4).parents, cap)
        assert_state_from_scratch(graph)
        for pick in picks:
            moves = neighbors(graph.parents)
            graph = graph.moved(moves[pick % len(moves)])
            assert_state_from_scratch(graph)
        assert_walk_from_scratch(graph)

    def test_covered_reversal_changes_two_columns(self):
        # 1 -> 2 is covered (Pa(2) = Pa(1) + {1}); after its reversal, 2
        # reaches what 1 reached, less 2, plus 1, and no other node's
        # reach changes
        parents = ((), (0,), (0, 1), (2,), (3,))
        assert (1, 2) in oracle_covered_edges(parents)
        before = _Graph.of(parents)
        after = before.moved(ArcMove("reverse", 1, 2))
        assert after.parents == ((), (0, 2), (0,), (2,), (3,))
        changed = np.flatnonzero((before.reach != after.reach).any(axis=0))
        assert set(changed.tolist()) <= {1, 2}
        expected = before.reach[:, 1].copy()
        expected[[2, 1]] = False, True
        assert np.array_equal(after.reach[:, 2], expected)
        assert_state_from_scratch(after)
