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

Constructing a RotationMap checks its arrays and derives its vertex and
face orbits in one pass: the walk that collects the cycles of sigma is
also the proof that sigma is a permutation, and the same walker run on
phi gives the faces.  The orbits are stored on the map, not computed
on first use.

All surgery functions return new maps; RotationMap is immutable.  Their
private primitives ``_draw_edge`` and ``_draw_star`` append darts to plain
sigma/alpha lists in place, so a construction that draws many edges builds
its RotationMap once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from .errors import (
    BudgetError,
    InternalCheckError,
    PreconditionError,
    StructureError,
)

# A corner is just a dart; the alias marks intent in signatures.
Corner = int


def _cycles(perm: Sequence[int], n: int,
            name: str) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Cycles of ``perm`` on the darts 1..n, and each dart's cycle index.

    Cycles start at their least element and come sorted by it; slot 0 of
    the index holds 0.  The walk is also the proof that ``perm`` is a
    permutation of 1..n: every image is checked to be an int in range,
    and a walk from an unseen dart must close at its own start, because
    reaching any other seen dart means that dart has two preimages.
    Raises StructureError otherwise.
    """
    index: list = [None] * (n + 1)
    index[0] = 0
    cycles = []
    for start in range(1, n + 1):
        if index[start] is not None:
            continue
        i = len(cycles)
        index[start] = i
        cyc = [start]
        d = start
        while True:
            e = perm[d]
            if not (isinstance(e, int) and 0 < e <= n):
                raise StructureError(f"{name}[{d}] = {e!r} is out of range")
            if e == start:
                break
            if index[e] is not None:
                raise StructureError(f"{name} is not injective at dart {d}")
            index[e] = i
            cyc.append(e)
            d = e
        cycles.append(tuple(cyc))
    return tuple(cycles), tuple(index)


def _check_index(what: str, x, lo: int, hi: int) -> None:
    """The guard for a dart, corner or vertex index passed in by a caller:
    raise PreconditionError unless ``x`` is an int with lo <= x <= hi."""
    if not (isinstance(x, int) and lo <= x <= hi):
        raise PreconditionError(f"{what} {x!r} is out of range")


def _check_alpha(alpha: Sequence[int], n: int) -> None:
    """Raise StructureError unless ``alpha`` is a fixed-point-free
    involution of the darts 1..n; slot 0 is not read.  Such an involution
    is a permutation, so no second check is needed."""
    for d in range(1, n + 1):
        a = alpha[d]
        if not (isinstance(a, int) and 0 < a <= n):
            raise StructureError(f"alpha[{d}] = {a!r} is out of range")
        if a == d:
            raise StructureError(f"alpha fixes dart {d}")
        if alpha[a] != d:
            raise StructureError(f"alpha is not an involution at dart {d}")


def _check_permutation(perm: Sequence[int], n_darts: int, name: str) -> None:
    if len(perm) != n_darts + 1:
        raise StructureError(
            f"{name} has {len(perm) - 1} entries, expected {n_darts}")
    _cycles(perm, n_darts, name)


def _relabeled_arrays(m: RotationMap, perm: Sequence[int]):
    """The sigma and alpha lists of ``m`` relabeled by ``perm``, unchecked."""
    n = m.n_darts
    sig = [0] * (n + 1)
    alf = [0] * (n + 1)
    for d in range(1, n + 1):
        sig[perm[d]] = perm[m.sigma[d]]
        alf[perm[d]] = perm[m.alpha[d]]
    return sig, alf


@dataclass(frozen=True)
class RotationMap:
    """An immutable connected rotation system with a root dart.

    Construction checks the dart arrays and derives the vertex and face
    orbits in the same walks: ``phi``, ``vertices``, ``vertex_index``,
    ``faces``, ``face_index`` and ``genus`` are plain attributes from
    then on.  Equality and hashing see only ``(sigma, alpha, root)``.
    """

    sigma: tuple[int, ...]
    alpha: tuple[int, ...]
    root: int = 1

    def __post_init__(self):
        sigma = tuple(self.sigma)
        alpha = tuple(self.alpha)
        root = self.root
        n = len(sigma) - 1
        if n < 2 or n % 2 != 0:
            raise StructureError(f"dart count {n} is not a positive even number")
        if len(alpha) != n + 1:
            raise StructureError(
                f"alpha has {len(alpha) - 1} entries, expected {n}")
        if sigma[0] != 0 or alpha[0] != 0:
            raise StructureError("slot 0 of sigma and alpha must hold 0")
        vertices, vertex_index = _cycles(sigma, n, "sigma")
        _check_alpha(alpha, n)
        if not (isinstance(root, int) and 0 < root <= n):
            raise StructureError(f"root dart {root!r} is not an int in 1..{n}")
        # Connectivity: the vertices joined by alpha form one component.
        reached = [False] * len(vertices)
        reached[0] = True
        stack = [0]
        while stack:
            for d in vertices[stack.pop()]:
                w = vertex_index[alpha[d]]
                if not reached[w]:
                    reached[w] = True
                    stack.append(w)
        if not all(reached):
            bad = vertices[reached.index(False)][0]
            raise StructureError(
                f"map is disconnected: dart {bad} unreachable from dart 1")
        # phi[d] = sigma[alpha[d]], slot 0 included; a product of two
        # permutations, so its walk cannot fail
        phi = itemgetter(*alpha)(sigma)
        faces, face_index = _cycles(phi, n, "phi")
        chi = len(vertices) - n // 2 + len(faces)
        if chi % 2 != 0 or chi > 2:
            raise InternalCheckError(f"impossible Euler characteristic {chi}")
        # frozen: write the instance dict directly, fields included
        self.__dict__.update(
            sigma=sigma, alpha=alpha, phi=phi, vertices=vertices,
            vertex_index=vertex_index, faces=faces, face_index=face_index,
            genus=(2 - chi) // 2)

    # -- basic structure ---------------------------------------------------

    @property
    def n_darts(self) -> int:
        return len(self.sigma) - 1

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

    # -- elementary transforms --------------------------------------------

    def reroot(self, d: int) -> "RotationMap":
        _check_index("dart", d, 1, self.n_darts)
        return RotationMap(self.sigma, self.alpha, d)

    def relabel(self, perm: Sequence[int]) -> "RotationMap":
        """Apply a dart relabeling; perm is 1-indexed with dummy slot 0."""
        _check_permutation(perm, self.n_darts, "relabeling")
        return RotationMap(*_relabeled_arrays(self, perm), perm[self.root])

    def dual(self) -> "RotationMap":
        """Exchange vertices and faces; an exact involution."""
        return RotationMap(self.phi, self.alpha, self.root)

    # -- canonical forms ---------------------------------------------------

    def _canonical_walk(self, root: int) -> tuple[list, tuple, tuple]:
        """One breadth-first walk from ``root``, scanning sigma then alpha.

        Returns ``(rho, sigma, alpha)``: ``rho`` numbers the darts in the
        order the walk meets them, and the two tuples are the map's arrays
        in that numbering.  The dart numbered i is processed i-th, and its
        images are numbered by then, so canonical ``sigma[i]`` is
        ``rho[sigma[d]]`` for that dart d; no relabeled map is built.
        """
        sigma, alpha = self.sigma, self.alpha
        rho = [0] * len(sigma)
        rho[root] = 1
        order = [root]
        sig = [0]
        alf = [0]
        # the loop also visits the darts appended while it runs
        for d in order:
            s = sigma[d]
            if not rho[s]:
                order.append(s)
                rho[s] = len(order)
            a = alpha[d]
            if not rho[a]:
                order.append(a)
                rho[a] = len(order)
            sig.append(rho[s])
            alf.append(rho[a])
        return rho, tuple(sig), tuple(alf)

    def canonical(self) -> "RotationMap":
        """The map renumbered by the walk from its root, rooted at 1."""
        return self.relabel(self._canonical_walk(self.root)[0])

    def canonical_key(self) -> tuple:
        """Hashable invariant: equal keys iff equal as rooted maps."""
        return self._canonical_walk(self.root)[1:]

    def unrooted_key(self) -> tuple:
        """Minimum of canonical_key over all rerootings."""
        return min(self._canonical_walk(d)[1:]
                   for d in range(1, self.n_darts + 1))

    def rooted_pointed_key(self, v_index: int) -> tuple:
        """Isomorphism invariant of the rooted map with one marked vertex:
        canonical_key followed by the least canonical dart number on the
        vertex."""
        _check_index("vertex index", v_index, 0, self.n_vertices - 1)
        rho, sig, alf = self._canonical_walk(self.root)
        return sig, alf, min(rho[x] for x in self.vertices[v_index])

    def pointed_key(self, v_index: int) -> tuple:
        """Isomorphism invariant of the unrooted map with one marked vertex.

        Two pairs (map, vertex) get the same key exactly when some
        isomorphism of the underlying unrooted maps matches the marks.
        """
        _check_index("vertex index", v_index, 0, self.n_vertices - 1)
        orbit = self.vertices[v_index]
        best = None
        for d in range(1, self.n_darts + 1):
            rho, sig, alf = self._canonical_walk(d)
            cand = (sig, alf, min(rho[x] for x in orbit))
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
    _check_index("corner", c1, 1, m.n_darts)
    _check_index("corner", c2, 1, m.n_darts)
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
    for c in corners:
        _check_index("corner", c, 1, m.n_darts)
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
        _check_index("dart", d, 1, m.n_darts)
        doomed.add(d)
        doomed.add(m.alpha[d])
    return doomed


def _restrict_to_darts(m: RotationMap, keep: Sequence[int],
                       new_root: Optional[int],
                       may_vanish: frozenset[int] = frozenset()):
    """Shared tail of every deletion, and of the bijections that erase
    old darts in one step: rebuild sigma on the surviving darts ``keep``,
    given in ascending order, and pick the root.  ``keep[i]`` is renamed
    i + 1, so callers read old darts straight from ``keep``; the cost is
    that of the kept darts and the erased ones sigma skips between them.

    Returns (map, dart_map) where dart_map sends kept darts to their new
    names.  Raises PreconditionError if a vertex outside ``may_vanish``
    (vertex indices) would lose all its darts, or when the root cannot be
    placed; only that check walks every vertex, and only when some vertex
    is not in ``may_vanish``.
    """
    if not keep:
        raise PreconditionError("deletion would empty the map")
    dart_map = {d: i for i, d in enumerate(keep, 1)}
    if len(may_vanish) < m.n_vertices:
        alive = {m.vertex_index[d] for d in keep}
        for v, orb in enumerate(m.vertices):
            if v not in alive and v not in may_vanish:
                raise PreconditionError(
                    f"deletion would isolate the vertex holding dart {orb[0]}")
    sigma, alpha = m.sigma, m.alpha
    sig, alf = [0], [0]
    for d in keep:
        e = sigma[d]
        while e not in dart_map:
            e = sigma[e]
        sig.append(dart_map[e])
        alf.append(dart_map[alpha[d]])
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

    out, _ = _restrict_to_darts(
        m, [d for d in range(1, m.n_darts + 1) if d not in doomed], new_root)
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
    _check_index("dart", v_dart, 1, m.n_darts)
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
    out, _ = _restrict_to_darts(
        m, [d for d in range(1, m.n_darts + 1) if d not in doomed], None,
        may_vanish=frozenset({m.vertex_index[v_dart]}))
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

    def passes(check, *args) -> bool:
        try:
            check(*args)
        except StructureError:
            return False
        return True

    even = n > 0 and n % 2 == 0
    sigma_ok = even and passes(_cycles, (0,) + tuple(sigma), n, "sigma")
    alpha_ok = (even and len(alpha) == n
                and passes(_check_alpha, (0,) + tuple(alpha), n))
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
    if not isinstance(n_edges, int) or n_edges < 1:
        raise PreconditionError(
            f"need an integer number of edges >= 1, got {n_edges!r}")
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
