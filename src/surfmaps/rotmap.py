"""Rotation systems: combinatorial maps on orientable surfaces.

A map with n edges is encoded on the dart set {1, ..., 2n}.  Two
permutations describe it:

* ``sigma`` sends each dart to the next dart counterclockwise around the
  same vertex, so vertices are the cycles of sigma;
* ``alpha`` is a fixed-point-free involution pairing the two darts of
  each edge.

Faces are the cycles of ``phi = sigma o alpha``: following
``d -> sigma[alpha[d]]`` walks the border of the face lying to the right
of d, and that walk reads clockwise on the surface.  Euler's relation
``v - n + f = 2 - 2g`` then defines the genus.

Permutations are stored as tuples indexed from 1; slot 0 holds a dummy
zero.  A corner is named by the dart it follows: the corner ``c`` is the
sector between arc ``c`` and ``sigma[c]`` at their common origin, and it
belongs to the face walk of ``alpha[c]``'s orbit.

All surgery functions return new maps; RotationMap is immutable.  Their
private primitives ``_draw_edge`` and ``_draw_star`` append darts to plain
sigma/alpha lists in place, so a construction that draws many edges builds
its RotationMap once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .errors import (
    BudgetError,
    InternalCheckError,
    PreconditionError,
    StructureError,
)

# A corner is just a dart; the alias marks intent in signatures.
Corner = int


def _orbits(perm: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Cycles of a 1-indexed permutation, each starting at its least element,
    sorted by that element."""
    n = len(perm) - 1
    seen = [False] * (n + 1)
    out = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = []
        d = start
        while not seen[d]:
            seen[d] = True
            cyc.append(d)
            d = perm[d]
        out.append(tuple(cyc))
    return tuple(out)


def _check_permutation(perm: Sequence[int], n_darts: int, name: str) -> None:
    if len(perm) != n_darts + 1:
        raise StructureError(
            f"{name} has {len(perm) - 1} entries, expected {n_darts}")
    hit = [False] * (n_darts + 1)
    for d in range(1, n_darts + 1):
        img = perm[d]
        if not isinstance(img, int) or not (1 <= img <= n_darts):
            raise StructureError(f"{name}[{d}] = {img!r} is out of range")
        if hit[img]:
            raise StructureError(f"{name} is not injective at dart {d}")
        hit[img] = True


@dataclass(frozen=True)
class RotationMap:
    """An immutable connected rotation system with a root dart."""

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    root: int = 1

    def __post_init__(self):
        sigma = tuple(self.sigma)
        alpha = tuple(self.alpha)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "alpha", alpha)
        n = len(sigma) - 1
        if n < 2 or n % 2 != 0:
            raise StructureError(f"dart count {n} is not a positive even number")
        if sigma[0] != 0 or alpha[0] != 0:
            raise StructureError("slot 0 of sigma and alpha must hold 0")
        _check_permutation(sigma, n, "sigma")
        _check_permutation(alpha, n, "alpha")
        for d in range(1, n + 1):
            if alpha[d] == d:
                raise StructureError(f"alpha fixes dart {d}")
            if alpha[alpha[d]] != d:
                raise StructureError(f"alpha is not an involution at dart {d}")
        if not (1 <= self.root <= n):
            raise StructureError(f"root dart {self.root} is out of range")
        # Connectivity under the group generated by sigma and alpha.
        seen = [False] * (n + 1)
        stack = [1]
        seen[1] = True
        count = 0
        while stack:
            d = stack.pop()
            count += 1
            for e in (sigma[d], alpha[d]):
                if not seen[e]:
                    seen[e] = True
                    stack.append(e)
        if count != n:
            bad = next(d for d in range(1, n + 1) if not seen[d])
            raise StructureError(
                f"map is disconnected: dart {bad} unreachable from dart 1")

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.sigma) - 1

    @cached_property
    def phi(self) -> tuple[int, ...]:
        """Face permutation d -> sigma[alpha[d]]."""
        return (0,) + tuple(self.sigma[self.alpha[d]]
                            for d in range(1, self.n_darts + 1))

    @cached_property
    def vertices(self) -> tuple[tuple[int, ...], ...]:
        return _orbits(self.sigma)

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        return _orbits(self.phi)

    @cached_property
    def vertex_index(self) -> tuple[int, ...]:
        idx = [0] * (self.n_darts + 1)
        for i, orb in enumerate(self.vertices):
            for d in orb:
                idx[d] = i
        return tuple(idx)

    @cached_property
    def face_index(self) -> tuple[int, ...]:
        idx = [0] * (self.n_darts + 1)
        for i, orb in enumerate(self.faces):
            for d in orb:
                idx[d] = i
        return tuple(idx)

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as (d, alpha[d]) pairs with d < alpha[d]."""
        return tuple((d, self.alpha[d]) for d in range(1, self.n_darts + 1)
                     if d < self.alpha[d])

    @cached_property
    def edge_ends(self) -> tuple[tuple[int, int], ...]:
        """The vertex indices of each edge's two darts, in edges order."""
        vi = self.vertex_index
        return tuple((vi[d], vi[e]) for d, e in self.edges)

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return self.n_darts // 2

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def genus(self) -> int:
        chi = self.n_vertices - self.n_edges + self.n_faces
        if chi % 2 != 0 or chi > 2:
            raise InternalCheckError(f"impossible Euler characteristic {chi}")
        return (2 - chi) // 2

    def degree(self, d: int) -> int:
        """Degree of the vertex holding dart d."""
        return len(self.vertices[self.vertex_index[d]])

    # -- elementary transforms --------------------------------------------

    def reroot(self, d: int) -> "RotationMap":
        if not (1 <= d <= self.n_darts):
            raise PreconditionError(f"dart {d} is out of range")
        return RotationMap(self.sigma, self.alpha, d)

    def relabel(self, perm: Sequence[int]) -> "RotationMap":
        """Apply a dart relabeling; perm is 1-indexed with dummy slot 0."""
        n = self.n_darts
        _check_permutation(perm, n, "relabeling")
        sig = [0] * (n + 1)
        alf = [0] * (n + 1)
        for d in range(1, n + 1):
            sig[perm[d]] = perm[self.sigma[d]]
            alf[perm[d]] = perm[self.alpha[d]]
        return RotationMap(tuple(sig), tuple(alf), perm[self.root])

    def dual(self) -> "RotationMap":
        """Exchange vertices and faces; an exact involution."""
        return RotationMap(self.phi, self.alpha, self.root)

    # -- canonical forms ---------------------------------------------------

    def _canonical_perm(self) -> tuple[int, ...]:
        """Breadth-first dart relabeling determined by the root."""
        n = self.n_darts
        rho = [0] * (n + 1)
        order = [self.root]
        rho[self.root] = 1
        head = 0
        while head < len(order):
            d = order[head]
            head += 1
            for e in (self.sigma[d], self.alpha[d]):
                if rho[e] == 0:
                    rho[e] = len(order) + 1
                    order.append(e)
        return tuple(rho)

    def canonical(self) -> "RotationMap":
        return self.relabel(self._canonical_perm())

    def canonical_key(self) -> tuple:
        """Hashable invariant: equal keys iff equal as rooted maps."""
        c = self.canonical()
        return (c.sigma, c.alpha)

    def unrooted_key(self) -> tuple:
        """Minimum of canonical_key over all rerootings."""
        return min(self.reroot(d).canonical_key()
                   for d in range(1, self.n_darts + 1))

    def pointed_key(self, v_index: int) -> tuple:
        """Isomorphism invariant of the unrooted map with one marked vertex.

        Two pairs (map, vertex) get the same key exactly when some
        isomorphism of the underlying unrooted maps matches the marks.
        """
        if not (0 <= v_index < self.n_vertices):
            raise PreconditionError(f"vertex index {v_index} is out of range")
        orbit = self.vertices[v_index]
        best = None
        for d in range(1, self.n_darts + 1):
            r = self.reroot(d)
            rho = r._canonical_perm()
            c = r.relabel(rho)
            cand = (c.sigma, c.alpha, min(rho[x] for x in orbit))
            if best is None or cand < best:
                best = cand
        return best


# -- corners and face walks -----------------------------------------------


def corner_face(m: RotationMap, c: Corner) -> int:
    """Index of the face the corner c belongs to."""
    return m.face_index[m.alpha[c]]


def next_corner(m: RotationMap, c: Corner) -> Corner:
    """The corner following c along its face walk."""
    return m.alpha[m.sigma[c]]


def face_corners(m: RotationMap, d: int) -> tuple[Corner, ...]:
    """Corners of the face holding dart d, in face-walk order.

    The walk visits the corner alpha[x] right after traversing arc x, so
    the corners come out as alpha of the orbit of d.
    """
    return tuple(m.alpha[x] for x in m.faces[m.face_index[d]])


# -- edge and vertex surgery ------------------------------------------------


def _draw_edge(sig: list, alf: list, c1: Corner, c2: Corner) -> int:
    """Append an edge joining corners c1 and c2 to the dart lists, in place.

    Returns the new dart a at c1; its partner a + 1 sits at c2.  When
    c1 == c2 the loop's two darts follow c1 in the order a, a + 1.
    """
    a = len(sig)
    b = a + 1
    sig += [0, 0]
    alf += [b, a]
    sig[b] = sig[c2]
    sig[c2] = b
    sig[a] = sig[c1]
    sig[c1] = a
    return a


def _draw_star(sig: list, alf: list, corners: Sequence[Corner]) -> None:
    """Append a new vertex joined to each corner, in place.

    Spoke darts r+1, r+3, ... sit at the corners; darts r+2, r+4, ...
    form the new vertex, where r is the dart count before the call.
    """
    r = len(sig) - 1
    k = len(corners)
    sig += [0] * (2 * k)
    alf += [0] * (2 * k)
    for i, c in enumerate(corners):
        a = r + 2 * i + 1
        b = a + 1
        sig[a] = sig[c]
        sig[c] = a
        alf[a] = b
        alf[b] = a
        # star chirality: at the new vertex the rotation runs against the
        # face-walk order of the chosen corners, which keeps the genus
        sig[b] = b - 2 if i else r + 2 * k


def add_edge_in_face(m: RotationMap, c1: Corner, c2: Corner) -> RotationMap:
    """Join two corners of a common face by a new edge.

    The new darts are r+1 at c1 and r+2 at c2 where r = m.n_darts.  The
    host face splits in two; genus is unchanged.
    """
    if corner_face(m, c1) != corner_face(m, c2):
        raise PreconditionError(
            f"corners {c1} and {c2} do not share a face")
    sig, alf = list(m.sigma), list(m.alpha)
    _draw_edge(sig, alf, c1, c2)
    out = RotationMap(sig, alf, m.root)
    if out.n_faces != m.n_faces + 1 or out.genus != m.genus:
        raise InternalCheckError("edge insertion changed the surface")
    return out


def add_vertex_star(m: RotationMap, corners: Sequence[Corner]) -> RotationMap:
    """Insert a new vertex inside a face and join it to the given corners.

    ``corners`` must be distinct corners of one face, listed in face-walk
    order (any rotation of it).  Spoke darts r+1, r+3, ... sit at the old
    corners; darts r+2, r+4, ... form the new vertex.  A face met at k
    corners splits into k faces.
    """
    k = len(corners)
    if k == 0:
        raise PreconditionError("need at least one corner")
    if len(set(corners)) != k:
        raise PreconditionError("corners must be distinct")
    f = corner_face(m, corners[0])
    for c in corners[1:]:
        if corner_face(m, c) != f:
            raise PreconditionError(f"corner {c} lies in a different face")
    walk = face_corners(m, m.alpha[corners[0]])
    pos = {c: i for i, c in enumerate(walk)}
    ranks = [pos[c] for c in corners]
    start = ranks.index(min(ranks))
    rotated = ranks[start:] + ranks[:start]
    if rotated != sorted(ranks):
        raise PreconditionError("corners are not in face-walk order")

    sig, alf = list(m.sigma), list(m.alpha)
    _draw_star(sig, alf, corners)
    out = RotationMap(sig, alf, m.root)
    if out.n_faces != m.n_faces + k - 1 or out.genus != m.genus:
        raise InternalCheckError("star insertion changed the surface")
    return out


def _normalize_edge_set(m: RotationMap, edges: Iterable[int]) -> set[int]:
    """Expand an iterable of darts to the full dart set of their edges."""
    doomed: set[int] = set()
    for d in edges:
        if not (1 <= d <= m.n_darts):
            raise PreconditionError(f"dart {d} is out of range")
        doomed.add(d)
        doomed.add(m.alpha[d])
    return doomed


def _restrict_to_darts(m: RotationMap, doomed: set[int],
                       new_root: Optional[int],
                       may_vanish: frozenset[int] = frozenset()):
    """Shared tail of every deletion, and of the bijections that erase
    old darts in one step: rebuild sigma on the surviving darts,
    renumber them in ascending order, pick the root.

    Returns (map, dart_map) where dart_map sends old surviving darts to
    their new names.  Raises PreconditionError if a vertex outside
    ``may_vanish`` (vertex indices) would lose all its darts, or when the
    root cannot be placed.
    """
    n = m.n_darts
    survivors = [d for d in range(1, n + 1) if d not in doomed]
    if not survivors:
        raise PreconditionError("deletion would empty the map")
    alive = set(m.vertex_index[d] for d in survivors)
    for d in doomed:
        v = m.vertex_index[d]
        if v not in alive and v not in may_vanish:
            raise PreconditionError(
                f"deletion would isolate the vertex holding dart {d}")
    dart_map = {d: i + 1 for i, d in enumerate(survivors)}
    sig = [0] * (len(survivors) + 1)
    alf = [0] * (len(survivors) + 1)
    for d in survivors:
        e = m.sigma[d]
        while e in doomed:
            e = m.sigma[e]
        sig[dart_map[d]] = dart_map[e]
        alf[dart_map[d]] = dart_map[m.alpha[d]]
    if new_root is not None:
        if new_root not in dart_map:
            raise PreconditionError(f"requested root {new_root} is deleted")
        root = dart_map[new_root]
    elif m.root in dart_map:
        root = dart_map[m.root]
    else:
        raise PreconditionError(
            "root dart is deleted; reroot at a surviving dart first")
    return RotationMap(tuple(sig), tuple(alf), root), dart_map


def delete_edges(m: RotationMap, edges: Iterable[int], *,
                 new_root: Optional[int] = None) -> RotationMap:
    """Delete a set of edges whose dual edges form a forest.

    ``edges`` is any iterable of darts; each names its whole edge.  The
    forest condition (checked by union-find on faces) guarantees the
    result is again a map on the same surface, with one face less per
    deleted edge.  Deleting a vertex's last edge is refused.
    """
    doomed = _normalize_edge_set(m, edges)
    parent = list(range(m.n_faces))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    n_deleted = 0
    for d in sorted(doomed):
        if d > m.alpha[d]:
            continue
        n_deleted += 1
        fa, fb = find(m.face_index[d]), find(m.face_index[m.alpha[d]])
        if fa == fb:
            raise PreconditionError(
                f"edge of dart {d} closes a cycle of dual edges; "
                "deleting it would change the surface")
        parent[fa] = fb

    out, _ = _restrict_to_darts(m, doomed, new_root)
    if out.n_faces != m.n_faces - n_deleted or out.genus != m.genus:
        raise InternalCheckError("edge deletion changed the surface")
    return out


def delete_vertex_star(m: RotationMap, v_dart: int) -> RotationMap:
    """Delete a vertex together with all its incident edges.

    Requires: no loop at the vertex, the incident faces pairwise
    distinct, and a nonempty remainder.  These conditions make the
    deletion a homeomorphism-safe operation: faces merge into one and the
    genus is preserved.  The root must survive; reroot first otherwise.
    """
    if not (1 <= v_dart <= m.n_darts):
        raise PreconditionError(f"dart {v_dart} is out of range")
    star = m.vertices[m.vertex_index[v_dart]]
    deg = len(star)
    incident_faces = []
    for d in star:
        if m.vertex_index[m.alpha[d]] == m.vertex_index[d]:
            raise PreconditionError(
                f"vertex of dart {v_dart} carries a loop at dart {d}")
        incident_faces.append(m.face_index[d])
    if len(set(incident_faces)) != deg:
        raise PreconditionError(
            f"vertex of dart {v_dart} meets some face more than once")
    doomed = _normalize_edge_set(m, star)
    if len(doomed) == m.n_darts:
        raise PreconditionError("deletion would empty the map")
    out, _ = _restrict_to_darts(
        m, doomed, None, may_vanish=frozenset({m.vertex_index[v_dart]}))
    if out.n_faces != m.n_faces - deg + 1 or out.genus != m.genus:
        raise InternalCheckError("vertex deletion changed the surface")
    return out


# -- diagnostics and random maps --------------------------------------------


@dataclass(frozen=True)
class MapDiagnostics:
    """Outcome of validating raw dart arrays."""

    n_darts: int
    sigma_ok: bool
    alpha_ok: bool
    root_ok: bool
    connected: bool
    n_vertices: Optional[int] = None
    n_edges: Optional[int] = None
    n_faces: Optional[int] = None
    genus: Optional[int] = None

    @property
    def ok(self) -> bool:
        return (self.sigma_ok and self.alpha_ok and self.root_ok
                and self.connected)


def validate(sigma: Sequence[int], alpha: Sequence[int],
             root: int = 1) -> MapDiagnostics:
    """Diagnose raw 1-indexed image arrays (no dummy slot) as a map.

    Never raises on semantic problems; inspect the returned flags.
    """
    n = len(sigma)

    def is_perm(arr: Sequence[int]) -> bool:
        try:
            _check_permutation((0,) + tuple(arr), n, "array")
        except StructureError:
            return False
        return True

    sigma_ok = n > 0 and n % 2 == 0 and is_perm(sigma)
    alpha_ok = (n > 0 and n % 2 == 0 and is_perm(alpha)
                and all(alpha[alpha[d - 1] - 1] == d and alpha[d - 1] != d
                        for d in range(1, n + 1)))
    root_ok = isinstance(root, int) and 1 <= root <= n
    if not (sigma_ok and alpha_ok and root_ok):
        return MapDiagnostics(n, sigma_ok, alpha_ok, root_ok, False)
    try:
        m = RotationMap((0,) + tuple(sigma), (0,) + tuple(alpha), root)
    except StructureError:
        return MapDiagnostics(n, True, True, True, False)
    return MapDiagnostics(n, True, True, True, True, m.n_vertices,
                          m.n_edges, m.n_faces, m.genus)


def random_rotation_map(rng: random.Random, n_edges: int,
                        genus: Optional[int] = None,
                        max_tries: int = 100000) -> RotationMap:
    """Uniform connected rotation system with n_edges edges, by rejection.

    With ``genus`` given, also conditions on the genus.  Raises
    BudgetError when rejection keeps failing, which signals an impossible
    or absurdly unlikely request.
    """
    if n_edges < 1:
        raise PreconditionError("need at least one edge")
    n = 2 * n_edges
    darts = list(range(1, n + 1))
    for _ in range(max_tries):
        sig_img = darts[:]
        rng.shuffle(sig_img)
        matching = darts[:]
        rng.shuffle(matching)
        alf = [0] * (n + 1)
        for i in range(0, n, 2):
            a, b = matching[i], matching[i + 1]
            alf[a] = b
            alf[b] = a
        try:
            m = RotationMap((0,) + tuple(sig_img), tuple(alf),
                            rng.randrange(1, n + 1))
        except StructureError:
            continue
        if genus is None or m.genus == genus:
            return m
    raise BudgetError(
        f"no map with {n_edges} edges and genus {genus} "
        f"found in {max_tries} tries")
