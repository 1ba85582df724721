"""The benchmark's tracer replaces functions at named module bindings
(``perfbench.tracer.PATCH_POINTS``).  A refactor that drops or renames one
would break traced benchmark runs, so tier-1 checks the bindings here."""

import importlib
import inspect
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.tracer import PATCH_POINTS  # noqa: E402


@pytest.mark.parametrize("module, attr", PATCH_POINTS, ids=[f"{m}.{a}" for m, a in PATCH_POINTS])
def test_patch_point_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"dagmix.{module}"), attr, None))


def test_search_takes_structures_second():
    # the tracer counts changed arcs against the second positional argument
    from dagmix.search import search_all_components

    assert list(inspect.signature(search_all_components).parameters)[1] == "structures"


# The traced counts of bayes.local_score and search.neighbors mean something
# only while search calls them where these tests pin.


def test_local_score_calls_per_search(monkeypatch):
    # once per node at the start, then once per node each accepted move
    # rewrites: one for an add or a delete, two for a reversal
    import numpy as np

    from dagmix import search
    from dagmix.model import empty_structure
    from conftest import marginals_of
    from test_bayes import random_prior, stats_of

    rng = np.random.default_rng(1)  # its search escapes a local maximum
    rows = rng.standard_normal((300, 5)) @ rng.standard_normal((5, 5))
    prior = random_prior(5, rng)
    calls = []
    real = search.local_score
    monkeypatch.setattr(search, "local_score",
                        lambda marginals, node, ps: calls.append(node) or real(marginals, node, ps))
    trace = []
    search.greedy_component_search(marginals_of(prior, stats_of(rows)), empty_structure(5),
                                   trace=trace)
    assert any(step.sideways for step in trace)
    rewritten = sum(2 if step.move.kind == "reverse" else 1 for step in trace)
    assert len(calls) == 5 + rewritten


def test_structural_difference_lists_moves_once_per_class_member(monkeypatch):
    from dagmix import search
    from dagmix.harness import default_gold_standard
    from dagmix.model import empty_structure

    walked, listed = [], []
    real_walk, real_neighbors = search._class_walk, search.neighbors

    def walk(parents):
        for member in real_walk(parents):
            walked.append(member[0])
            yield member

    monkeypatch.setattr(search, "_class_walk", walk)
    monkeypatch.setattr(search, "neighbors", lambda parents: listed.append(parents)
                        or real_neighbors(parents))
    gold = default_gold_standard().model.components[0].structure
    assert search.structural_difference(empty_structure(5), gold) > 0
    assert listed == walked and len(listed) > 1
