"""Fixtures shared by the test modules."""

import itertools
import random
from functools import lru_cache

import pytest

from surfmaps import LabeledMap, RotationMap, face_corners
from surfmaps.schemes import (
    MotzkinWalk,
    ReducedTree,
    Scheme,
    SchemeDecomposition,
    _shapes,
    graft,
    rebuild,
)


@pytest.fixture
def builds(monkeypatch):
    """``builds(f, *args)``: the number of RotationMap constructions made
    by one call ``f(*args)``."""

    def count(f, *args):
        calls = []
        post_init = RotationMap.__post_init__

        def counting(self):
            calls.append(1)
            post_init(self)

        with monkeypatch.context() as mp:
            mp.setattr(RotationMap, "__post_init__", counting)
            f(*args)
        return len(calls)

    return count


def _motzkin_bridge(rng, length, increment):
    """A random walk of steps -1, 0, +1 with the given length and sum."""
    u = rng.randrange((length - abs(increment)) // 2 + 1)
    sgn = 1 if increment > 0 else -1
    steps = ([sgn] * abs(increment) + [1, -1] * u
             + [0] * (length - abs(increment) - 2 * u))
    rng.shuffle(steps)
    return MotzkinWalk(steps)


@lru_cache(maxsize=None)
def _large_genus_tree(g, seed):
    """A one-face embedded map of genus g with 2,400 to 3,000 edges: a
    random scheme, random Motzkin walks along its edges (rebuild), then
    one pendant edge grafted into every corner of the core."""
    rng = random.Random(seed)
    shape = rng.choice(_shapes(rng.randrange(2 * g, 6 * g - 2), g))
    raw = [rng.randrange(shape.n_vertices) for _ in shape.vertices]
    ranks = sorted(set(raw))
    scheme = Scheme(shape, tuple(ranks.index(x) for x in raw))
    values = tuple(itertools.accumulate(
        rng.randint(1, 3) for _ in range(scheme.p)))
    vals = (0,) + values
    vi = shape.vertex_index
    walks = []
    for d, e in shape.edges:
        inc = vals[scheme.labels[vi[e]]] - vals[scheme.labels[vi[d]]]
        walks.append(_motzkin_bridge(
            rng, rng.randint(800 // scheme.k, 1000 // scheme.k), inc))
    core = rebuild(SchemeDecomposition(scheme, walks, values)).core
    cm = core.map
    cs = face_corners(cm, cm.root)
    i0 = cs.index(cm.root)
    pendant = RotationMap((0, 1, 2), (0, 2, 1))
    attachments = []
    for y in cs[i0:] + cs[:i0]:
        lab = core.label_of(y)
        attachments.append(
            LabeledMap(pendant, (lab, lab + rng.choice((-1, 0, 1)))))
    return graft(ReducedTree(core, attachments))


@pytest.fixture
def large_genus_tree():
    """``large_genus_tree(g, seed)``: the map of _large_genus_tree, built
    once per (g, seed) in a session."""
    return _large_genus_tree
