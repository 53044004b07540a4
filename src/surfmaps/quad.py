"""Maps of genus g versus bipartite quadrangulations of genus g.

Triangulating every face from a new vertex and erasing the original
edges turns a map with n edges into a bipartite quadrangulation with n
faces on the same surface: original vertices stay black, face vertices
are white, and each quadrangular face remembers one erased edge as its
black diagonal. Both directions are implemented as explicit surgery.
"""

from __future__ import annotations

from .errors import PreconditionError
from .rotmap import (
    RotationMap,
    add_edge_in_face,
    add_vertex_star,
    delete_edges,
    delete_vertex_star,
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
    cur = m
    for f in m.faces:
        # corner lists survive earlier stars: those touch other faces only
        cur = add_vertex_star(cur, face_corners(m, f[0]))
    root_q = cur.sigma[m.root]
    old_edges = list(range(1, m.n_darts + 1))
    return delete_edges(cur, old_edges, new_root=root_q)


def quad_to_map(q: RotationMap) -> RotationMap:
    """Inverse quadrangulation: diagonals between black corners, then
    removal of the white stars. Rejects non-quadrangulations and
    (relevant in genus at least 1) non-bipartite input."""
    color = check_quadrangulation(q)
    vi = q.vertex_index
    cur = q
    for f in q.faces:
        corners = face_corners(q, f[0])
        black = [c for c in corners if color[vi[c]] == 0]
        # degree 4 and alternating colors leave exactly two black corners
        cur = add_edge_in_face(cur, black[0], black[1])
    root_m = cur.sigma.index(q.root)
    cur = cur.reroot(root_m)
    # erase white stars one vertex at a time; tracking one dart per white
    # vertex through the renumbering of the intermediate deletions
    track = {v: orbit[0] for v, orbit in enumerate(q.vertices)
             if color[v] == 1}
    for v in sorted(track):
        cur, dmap = delete_vertex_star(cur, track[v], return_dart_map=True)
        track = {w: dmap[d] for w, d in track.items() if w != v}
    return cur
