"""Exact-uniform random generation of rooted pointed planar
quadrangulations, by closing a uniform labeled plane tree.

The tree sampler uses the cycle lemma: shuffle n up-steps and n+1
down-steps, rotate to the unique cyclic shift whose proper prefixes are
nonnegative, and read the first 2n steps as the contour of a plane
tree. Edge label variations are then drawn independently from
{-1, 0, +1}. Closure transports uniformity to quadrangulations with no
rejection and no reweighting.

Genus >= 1 sampling falls back to uniform choice from the exhaustive
census and is therefore limited to budgeted sizes.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from .bijection import PointedQuad, close_rooted_pointed
from .census import enumerate_embedded_trees
from .errors import PreconditionError
from .labeling import LabeledMap
from .rotmap import RotationMap

__all__ = [
    "SampleResult",
    "DistanceProfile",
    "sample_embedded_tree",
    "sample_quadrangulation",
    "distance_profile",
]

Seed = Union[int, random.Random, None]


def _resolve_rng(seed: Seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _tree_from_choices(word, steps) -> LabeledMap:
    """The embedded plane tree of one choice tuple: any arrangement of n
    up-steps (+1) and n+1 down-steps (-1), and n label variations in
    {-1, 0, +1}, one per edge in contour order, root label 1.

    The word is rotated to its unique cyclic shift whose proper prefixes
    are nonnegative (the cycle lemma) and its first 2n steps are read as
    the contour, so each tree comes from exactly 2n+1 words.
    """
    n = len(steps)
    best, pos, acc = 0, 0, 0
    for j, s in enumerate(word, start=1):
        acc += s
        if acc < best:
            best, pos = acc, j
    contour = word[pos:] + word[:pos - 1]

    orbits = [[] for _ in range(n + 1)]  # dart lists, parent dart first
    labels = [1] + [0] * n
    stack = [0]
    next_vertex, edge = 1, 0
    for step in contour:
        if step == 1:
            edge += 1
            v, w = stack[-1], next_vertex
            next_vertex += 1
            orbits[v].append(2 * edge - 1)
            orbits[w].append(2 * edge)
            labels[w] = labels[v] + steps[edge - 1]
            stack.append(w)
        else:
            stack.pop()

    sigma = [0] * (2 * n + 1)
    alpha = [0] * (2 * n + 1)
    for darts in orbits:
        for i, d in enumerate(darts):
            sigma[d] = darts[(i + 1) % len(darts)]
    for e in range(1, n + 1):
        alpha[2 * e - 1] = 2 * e
        alpha[2 * e] = 2 * e - 1
    # vertex w's least dart is 2w (dart 1 for the root), so the map numbers
    # the vertices in creation order and the labels need no reindexing
    return LabeledMap(RotationMap(tuple(sigma), tuple(alpha)), tuple(labels))


def sample_embedded_tree(n: int, seed: Seed = None, genus: int = 0) -> LabeledMap:
    """Uniform embedded one-face map with n edges: a uniform rooted
    plane tree with independent uniform edge variations, root label 1.

    genus >= 1 draws uniformly from the exhaustive census instead and
    inherits its size budget.
    """
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(
            f"need an integer number of edges >= 1, got {n!r}")
    if not isinstance(genus, int):
        raise PreconditionError(f"genus must be an integer, got {genus!r}")
    rng = _resolve_rng(seed)
    if genus != 0:
        trees = enumerate_embedded_trees(n, genus)
        if not trees:
            raise PreconditionError(
                f"no embedded one-face map has n={n} edges at genus {genus}")
        return rng.choice(trees)

    word = [1] * n + [-1] * (n + 1)
    rng.shuffle(word)
    return _tree_from_choices(word, [rng.choice((-1, 0, 1)) for _ in range(n)])


class SampleResult(NamedTuple):
    quad: PointedQuad
    root: int
    sign: int


def sample_quadrangulation(n: int, seed: Seed = None, genus: int = 0) -> SampleResult:
    """Uniform rooted pointed bipartite quadrangulation with n faces,
    as the closure of a uniform embedded tree and a fair sign."""
    rng = _resolve_rng(seed)
    t = sample_embedded_tree(n, rng, genus)
    sign = 1 if rng.getrandbits(1) else -1
    pq = close_rooted_pointed(t, sign)
    return SampleResult(pq, pq.quad.root, sign)


@dataclass(frozen=True)
class DistanceProfile:
    """Summary of basepoint distances across samples. The label
    statistics are sample estimates, not exact values."""

    n: int
    samples: int
    seed: Optional[int]
    mean_max_label: float
    mean_label: float
    max_label_histogram: tuple


def distance_profile(n: int, samples: int, seed: Seed = None,
                     genus: int = 0) -> DistanceProfile:
    """Sample labeled trees and summarize their label range. The labels
    of the closed quadrangulation are the distances to its basepoint,
    so this profiles distances without building the quadrangulations."""
    if not isinstance(samples, int) or samples < 1:
        raise PreconditionError(
            f"need an integer number of samples >= 1, got {samples!r}")
    rng = _resolve_rng(seed)
    max_sum = 0.0
    mean_sum = 0.0
    hist = Counter()
    for _ in range(samples):
        t = sample_embedded_tree(n, rng, genus)
        shift = 1 - min(t.labels)
        top = max(t.labels) + shift
        hist[top] += 1
        max_sum += top
        mean_sum += sum(x + shift for x in t.labels) / len(t.labels)
    return DistanceProfile(
        n=n,
        samples=samples,
        seed=seed if isinstance(seed, int) else None,
        mean_max_label=max_sum / samples,
        mean_label=mean_sum / samples,
        max_label_histogram=tuple(sorted(hist.items())),
    )
