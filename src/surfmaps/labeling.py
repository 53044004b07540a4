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
from typing import Optional, Sequence

from .errors import StructureError
from .rotmap import RotationMap, _check_index, _restrict_to_darts


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
        return self._walk_key(self.map.root)

    def unrooted_key(self) -> tuple:
        return min(self._walk_key(d) for d in range(1, self.map.n_darts + 1))

    def _walk_key(self, root: int) -> tuple:
        """The map's canonical arrays from ``root`` and the labels in the
        order in which the canonical walk first meets each vertex."""
        m = self.map
        rho, sig, alf = m._canonical_walk(root)
        first = [min(rho[d] for d in orbit) for orbit in m.vertices]
        return (sig, alf,
                tuple(lab for _, lab in sorted(zip(first, self.labels))))


def _restrict_labeled(t: LabeledMap, keep: Sequence[int],
                      root: Optional[int], may_vanish: frozenset[int]):
    """_restrict_to_darts on a labeled map: every surviving vertex keeps
    its label. Returns (labeled map, kept dart -> new dart)."""
    sub, dart_map = _restrict_to_darts(t.map, keep, root, may_vanish)
    labels = tuple(t.label_of(keep[orb[0] - 1]) for orb in sub.vertices)
    return LabeledMap(sub, labels), dart_map


def edge_variation(lm: LabeledMap, d: int) -> int:
    """Label change along arc d, head minus origin."""
    return lm.label_of(lm.map.alpha[d]) - lm.label_of(d)


def has_small_variations(lm: LabeledMap) -> bool:
    """Whether every edge changes the label by -1, 0 or +1."""
    labels = lm.labels
    lab = [labels[v] for v in lm.map.vertex_index]
    return all(-1 <= lab[a] - lab[d] <= 1
               for d, a in enumerate(lm.map.alpha))


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
    _check_index("dart", v0_dart, 1, m.n_darts)
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
