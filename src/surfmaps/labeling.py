"""Vertex labelings of rotation maps.

A LabeledMap couples a RotationMap with one integer per vertex, in the
order of ``map.vertices`` (orbits sorted by least dart).  The two label
disciplines used throughout the package:

* embedded: every edge changes the label by -1, 0 or +1, and the root
  vertex is labeled 1;
* well labeled: the same variation rule, all labels positive, and 1 is
  attained.

Distance labeling from a basepoint produces well labeled maps; shifting
connects the two disciplines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

from .errors import PreconditionError, StructureError
from .rotmap import RotationMap


@dataclass(frozen=True)
class LabeledMap:
    map: RotationMap
    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.map.n_vertices:
            raise StructureError(
                f"{len(self.labels)} labels for {self.map.n_vertices} vertices")
        if not all(isinstance(x, int) for x in self.labels):
            raise StructureError("labels must be integers")

    def label_of(self, d: int) -> int:
        """Label of the vertex holding dart d."""
        return self.labels[self.map.vertex_index[d]]

    @cached_property
    def root_label(self) -> int:
        return self.label_of(self.map.root)

    def shift(self, delta: int) -> "LabeledMap":
        return LabeledMap(self.map, tuple(x + delta for x in self.labels))

    def canonical_key(self) -> tuple:
        """Rooted isomorphism invariant including labels."""
        perm = self.map._canonical_perm()
        c = self.map.relabel(perm)
        order = sorted(range(self.map.n_vertices),
                       key=lambda i: min(perm[d]
                                         for d in self.map.vertices[i]))
        return (c.sigma, c.alpha, tuple(self.labels[i] for i in order))

    def unrooted_key(self) -> tuple:
        return min(LabeledMap(self.map.reroot(d), self.labels).canonical_key()
                   for d in range(1, self.map.n_darts + 1))


def edge_variation(lm: LabeledMap, d: int) -> int:
    """Label change along arc d, head minus origin."""
    return lm.label_of(lm.map.alpha[d]) - lm.label_of(d)


def has_small_variations(lm: LabeledMap) -> bool:
    return all(abs(edge_variation(lm, d)) <= 1
               for d in range(1, lm.map.n_darts + 1))


def is_embedded(lm: LabeledMap) -> bool:
    return has_small_variations(lm) and lm.root_label == 1


def is_well_labeled(lm: LabeledMap) -> bool:
    return (has_small_variations(lm)
            and min(lm.labels) == 1)


def relabel_nu(lm: LabeledMap) -> LabeledMap:
    """Shift labels so the root vertex gets label 1."""
    return lm.shift(1 - lm.root_label)


def shift_min_1(lm: LabeledMap) -> LabeledMap:
    """Shift labels so the minimum label becomes 1."""
    return lm.shift(1 - min(lm.labels))


def distance_labels(m: RotationMap, v0_dart: int) -> tuple[int, ...]:
    """Graph distance of every vertex to the vertex holding v0_dart."""
    if not (1 <= v0_dart <= m.n_darts):
        raise PreconditionError(f"dart {v0_dart} is out of range")
    dist = [-1] * m.n_vertices
    src = m.vertex_index[v0_dart]
    dist[src] = 0
    queue = deque([src])
    while queue:
        v = queue.popleft()
        for d in m.vertices[v]:
            w = m.vertex_index[m.alpha[d]]
            if dist[w] < 0:
                dist[w] = dist[v] + 1
                queue.append(w)
    return tuple(dist)


def distance_labeling(m: RotationMap, v0_dart: int) -> LabeledMap:
    return LabeledMap(m, distance_labels(m, v0_dart))
