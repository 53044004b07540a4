"""Opening and closure: pointed bipartite quadrangulations of genus g
versus well-labeled one-face maps on the same surface.

Opening labels every vertex with its distance to the basepoint, draws one
chord per face joining the two corners where the labels step up, then
erases the basepoint star and all original edges. What survives is a
one-face map whose labels are the distances.

Closure rebuilds the quadrangulation from the labels alone: a new vertex
is wired into every corner labeled 1, every other corner is joined to its
predecessor (the first corner with the next smaller label along the face
walk), and the tree edges are erased. Matching corners of the tree root
recover the root of the quadrangulation, one arc per sign: closure picks
the sign's arc as the root in its one restriction, so both signs build
the map once.

`PointedQuad` is where a quadrangulation and its basepoint are checked:
opening takes one, closure returns one, and neither checks it again.

Each step draws every new edge into one pair of dart arrays, builds the
map once, checks it as a whole and erases the old darts in one
restriction, so both directions take time linear in the map size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import InternalCheckError, PreconditionError
from .labeling import (
    LabeledMap,
    _restrict_labeled,
    distance_labels,
    is_well_labeled,
    relabel_nu,
    shift_min_1,
)
from .quad import check_quadrangulation
from .rotmap import (
    Corner,
    RotationMap,
    _check_index,
    _draw_edge,
    _draw_star,
    _restrict_to_darts,
    face_corners,
    next_corner,
)

__all__ = ["PointedQuad", "OpeningResult", "open", "open_rooted",
           "open_rooted_pointed", "close", "close_rooted",
           "close_rooted_pointed", "predecessor"]


@dataclass(frozen=True)
class PointedQuad:
    """A bipartite quadrangulation with a marked vertex (by index).

    Construction is the one place where the quadrangulation and its
    basepoint are checked: opening takes a `PointedQuad` as it is, and
    closure builds its result as one, with the root already on the arc
    its sign picks.
    """

    quad: RotationMap
    basepoint: int

    def __post_init__(self):
        check_quadrangulation(self.quad)
        _check_index("basepoint", self.basepoint, 0,
                     self.quad.n_vertices - 1)

    @property
    def basepoint_dart(self) -> int:
        return self.quad.vertices[self.basepoint][0]


class OpeningResult(NamedTuple):
    tree: LabeledMap
    sign: int


def predecessor(t_prime: LabeledMap, c: Corner) -> Corner:
    """The corner a chord from c would attach to: the first corner with
    label one below c's, walking the face from c."""
    m = t_prime.map
    _check_index("corner", c, 1, m.n_darts)
    want = t_prime.label_of(c) - 1
    if want < 0:
        raise PreconditionError("corner label must be at least 1")
    x = next_corner(m, c)
    while x != c:
        if t_prime.label_of(x) == want:
            return x
        x = next_corner(m, x)
    raise PreconditionError(
        f"no corner labeled {want} in the face of corner {c}")


# -- opening -----------------------------------------------------------------


def _certify_orientation(q: RotationMap, qp: RotationMap, dist) -> None:
    """Consistency certificate, checked before anything is erased.

    In the chorded map, orient every original edge out of the face where
    it ascends. Each face must have exactly one outgoing edge, minima must
    not increase along the orientation, and the unique cycle must be the
    ring of faces around the basepoint.
    """
    vi = qp.vertex_index
    fi = qp.face_index
    n_old = q.n_darts
    out = {}
    fmin = {}
    at_v0 = set()
    for F, orbit in enumerate(qp.faces):
        asc = [d for d in orbit
               if d <= n_old and dist[vi[qp.alpha[d]]] > dist[vi[d]]]
        if len(asc) != 1:
            raise InternalCheckError(
                f"face has {len(asc)} ascending original arcs, wanted 1")
        out[F] = fi[qp.alpha[asc[0]]]
        fmin[F] = min(dist[vi[d]] for d in orbit)
        if any(dist[vi[d]] == 0 for d in orbit):
            at_v0.add(F)
    for F, G in out.items():
        if fmin[G] > fmin[F]:
            raise InternalCheckError(
                "face minimum increases along the orientation")
    indeg = {F: 0 for F in out}
    for G in out.values():
        indeg[G] += 1
    stack = [F for F in out if indeg[F] == 0]
    alive = set(out)
    while stack:
        F = stack.pop()
        alive.discard(F)
        G = out[F]
        indeg[G] -= 1
        if indeg[G] == 0 and G in alive:
            stack.append(G)
    start = next(iter(alive))
    cyc = {start}
    x = out[start]
    while x != start:
        cyc.add(x)
        x = out[x]
    if cyc != alive:
        raise InternalCheckError("orientation closes more than one cycle")
    if alive != at_v0:
        raise InternalCheckError(
            "oriented cycle does not ring the basepoint")


def _open_core(pq: PointedQuad) -> tuple[LabeledMap, int]:
    q, v0_dart = pq.quad, pq.basepoint_dart
    dist = distance_labels(q, v0_dart)
    vi = q.vertex_index

    # one chord per face, joining the two corners where labels step up;
    # every corner lies in one face, so the chords never share a corner
    sig, alf = list(q.sigma), list(q.alpha)
    for f in q.faces:
        walk = face_corners(q, f[0])
        labs = [dist[vi[c]] for c in walk]
        asc = [i for i in range(4) if labs[i] == labs[i - 1] + 1]
        if len(asc) != 2:
            raise InternalCheckError(
                f"face walk has labels {labs}, not a geodesic pattern")
        _draw_edge(sig, alf, walk[asc[0]], walk[asc[1]])
    cur = RotationMap(sig, alf, q.root)
    if cur.n_faces != 2 * q.n_faces or cur.genus != q.genus:
        raise InternalCheckError("opening chords changed the surface")

    _certify_orientation(q, cur, dist)

    # the surviving root: the chord drawn at the top corner of the root edge
    e_hat = q.root if dist[vi[q.alpha[q.root]]] > dist[vi[q.root]] \
        else q.alpha[q.root]
    sign = 1 if e_hat == q.root else -1
    root_t = cur.sigma[q.alpha[e_hat]]

    # erase the basepoint star and every other original edge at once; the
    # chords add no vertex, so dist labels cur's vertices as it does q's
    lm, _ = _restrict_labeled(
        LabeledMap(cur, dist), range(q.n_darts + 1, cur.n_darts + 1),
        root_t, frozenset({cur.vertex_index[v0_dart]}))
    tree = lm.map
    if tree.n_faces != 1 or tree.genus != q.genus or not is_well_labeled(lm):
        raise InternalCheckError("opening left a malformed labeled map")
    return lm, sign


def open(pq: PointedQuad) -> LabeledMap:  # noqa: A001 - mirrors the operation name
    """Open a pointed quadrangulation into a well-labeled one-face map."""
    lm, _ = _open_core(pq)
    return lm


def open_rooted(q: RotationMap) -> LabeledMap:
    """Open with the basepoint at the root vertex; the result is rooted at
    the chord of the root face and its root label is 1."""
    lm, sign = _open_core(PointedQuad(q, q.vertex_index[q.root]))
    if sign != 1 or lm.root_label != 1:
        raise InternalCheckError("root-vertex opening lost its orientation")
    return lm


def open_rooted_pointed(q: RotationMap, v0: int) -> OpeningResult:
    """Open with an arbitrary basepoint. The labels are translated so the
    root label is 1, and the sign records whether the root arc ascended."""
    lm, sign = _open_core(PointedQuad(q, v0))
    return OpeningResult(relabel_nu(lm), sign)


# -- closure -----------------------------------------------------------------


def _close_core(t: LabeledMap, sign: int = 1) -> PointedQuad:
    """Rebuild the quadrangulation around a well-labeled one-face map,
    pointed at the new vertex and rooted at the ascending root arc for
    sign +1, the descending one for sign -1.
    """
    m = t.map
    if m.n_faces != 1:
        raise PreconditionError("closure needs a one-face map")
    if not is_well_labeled(t):
        raise PreconditionError(
            "closure needs labels with minimum 1 varying by at most 1 "
            "along every edge")
    n_darts0 = m.n_darts

    # The label-1 corners cut the face walk into pieces: piece i runs from
    # just after cut i-1 to cut i, cyclically. Labels move by at most 1 per
    # corner, so every other corner's predecessor lies in its own piece.
    walk = face_corners(m, m.root)
    labels, vi = t.labels, m.vertex_index
    cuts = [i for i, c in enumerate(walk) if labels[vi[c]] == 1]
    pieces = [walk[cuts[j - 1] + 1:i + 1] if j else
              walk[cuts[-1] + 1:] + walk[:i + 1] for j, i in enumerate(cuts)]
    # the star closes each piece into one face, whose tree darts are alpha
    # of the piece's corners; faces take their chords in order of their
    # least dart
    pieces.sort(key=lambda piece: min(m.alpha[c] for c in piece))
    # the star goes into the same dart lists as the chords
    sig, alf = list(m.sigma), list(m.alpha)
    _draw_star(sig, alf, [walk[i] for i in cuts])
    v0_dart = n_darts0 + 2

    # far dart of the latest chord that landed at each corner
    last = {}
    for piece in pieces:
        # One backward pass: a corner's predecessor is the nearest later
        # corner labeled one less. Chords go in reverse walk order, so each
        # corner's own chord is in place before later chords land next to
        # it, and a chord landing where others already did goes right after
        # the latest of them, which is where the growing face meets it.
        nearest = {1: piece[-1]}
        for c in reversed(piece[:-1]):
            lab = labels[vi[c]]
            p = nearest.get(lab - 1)
            if p is None:
                raise InternalCheckError(
                    f"corner {c} has no predecessor in its face")
            last[p] = _draw_edge(sig, alf, c, last.get(p, p)) + 1
            nearest[lab] = c
    cur = RotationMap(sig, alf, m.root)
    # the star makes one face per cut and each chord splits one more
    if (cur.n_faces != (cur.n_darts - n_darts0) // 2
            or cur.genus != m.genus):
        raise InternalCheckError("closure chords changed the surface")

    # the root edge sits just before the tree root in its rotation;
    # the sign picks which of its two arcs becomes the root
    before = sig.index(m.root)
    quad, dmap = _restrict_to_darts(
        cur, range(n_darts0 + 1, cur.n_darts + 1),
        alf[before] if sign == 1 else before)
    try:
        pq = PointedQuad(quad, quad.vertex_index[dmap[v0_dart]])
    except PreconditionError as exc:
        raise InternalCheckError(f"closure left a non-quadrangulation: {exc}")
    if quad.genus != m.genus:
        raise InternalCheckError("closure changed the genus")
    return pq


def close(t: LabeledMap) -> PointedQuad:
    """Close a well-labeled one-face map into a pointed quadrangulation."""
    return _close_core(t)


def close_rooted(t: LabeledMap) -> RotationMap:
    """Close a well-labeled map rooted at a label-1 vertex; the result is
    rooted at the basepoint, which is the root vertex."""
    if t.root_label != 1:
        raise PreconditionError("rooted closure needs root label 1")
    return _close_core(t).quad


def close_rooted_pointed(t: LabeledMap, sign: int) -> PointedQuad:
    """Close an embedded one-face map with a sign choosing the root arc."""
    if sign not in (1, -1):
        raise PreconditionError(f"sign must be +1 or -1, got {sign}")
    if t.root_label != 1:
        raise PreconditionError("rooted pointed closure needs root label 1")
    # a shift keeps the variations, which _close_core checks
    return _close_core(shift_min_1(t), sign)
