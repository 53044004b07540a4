"""Maps of genus g versus bipartite quadrangulations of genus g.

Triangulating every face from a new vertex and erasing the original
edges turns a map with n edges into a bipartite quadrangulation with n
faces on the same surface: original vertices stay black, face vertices
are white, and each quadrangular face remembers one erased edge as its
black diagonal. Each direction draws every new edge into one pair of
dart arrays, builds the map once and erases the old edges in one
restriction.
"""

from __future__ import annotations

from .errors import InternalCheckError, PreconditionError
from .rotmap import (
    RotationMap,
    _draw_edge,
    _draw_star,
    _restrict_to_darts,
    delete_edges,
    face_corners,
)

__all__ = ["bipartition", "check_quadrangulation", "map_to_quad",
           "quad_to_map"]


def bipartition(m: RotationMap) -> tuple[int, ...]:
    """2-color the vertices, root vertex black (0).

    Raises PreconditionError when the map has an odd cycle.
    """
    vi = m.vertex_index
    color = [-1] * m.n_vertices
    root_v = vi[m.root]
    color[root_v] = 0
    queue = [root_v]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for d in m.vertices[v]:
            w = vi[m.alpha[d]]
            if color[w] == -1:
                color[w] = 1 - color[v]
                queue.append(w)
            elif color[w] == color[v]:
                raise PreconditionError(
                    "map is not bipartite: it contains an odd cycle")
    return tuple(color)


def check_quadrangulation(q: RotationMap) -> tuple[int, ...]:
    """Validate that q is a bipartite quadrangulation; return the coloring."""
    for f in q.faces:
        if len(f) != 4:
            raise PreconditionError(
                f"face {f} has degree {len(f)}, expected 4")
    return bipartition(q)


def map_to_quad(m: RotationMap) -> RotationMap:
    """Quadrangulate: one white vertex per face, then erase the old edges.

    The root becomes the new edge drawn in the corner of the root dart,
    keeping the root vertex and pointing into the face on the root's side.
    """
    sig, alf = list(m.sigma), list(m.alpha)
    for f in m.faces:
        # corner lists survive earlier stars: those touch other faces only
        _draw_star(sig, alf, face_corners(m, f[0]))
    cur = RotationMap(sig, alf, m.root)
    # a face of degree k splits into k faces
    if cur.n_faces != m.n_darts or cur.genus != m.genus:
        raise InternalCheckError("face stars changed the surface")
    return delete_edges(cur, range(1, m.n_darts + 1),
                        new_root=cur.sigma[m.root])


def quad_to_map(q: RotationMap) -> RotationMap:
    """Inverse quadrangulation: diagonals between black corners, then
    removal of the white stars. Rejects non-quadrangulations and
    (relevant in genus at least 1) non-bipartite input."""
    color = check_quadrangulation(q)
    vi = q.vertex_index
    sig, alf = list(q.sigma), list(q.alpha)
    for f in q.faces:
        corners = face_corners(q, f[0])
        black = [c for c in corners if color[vi[c]] == 0]
        # degree 4 and alternating colors leave exactly two black corners
        _draw_edge(sig, alf, black[0], black[1])
    cur = RotationMap(sig, alf, q.root)
    # the diagonals add no vertex: cur's vertices are q's, in q's order
    white = frozenset(v for v, c in enumerate(color) if c == 1)
    # every original edge has a white end, so erasing the white stars
    # erases all of them and leaves the diagonals
    out, _ = _restrict_to_darts(cur, range(q.n_darts + 1, cur.n_darts + 1),
                                sig.index(q.root), may_vanish=white)
    if out.n_faces != len(white) or out.genus != q.genus:
        raise InternalCheckError(
            "removing the white stars changed the surface")
    return out
