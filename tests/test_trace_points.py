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
