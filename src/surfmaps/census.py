"""Exhaustive generation of small rooted maps, one-face maps, labeled
trees, and quadrangulations.

Everything here is an oracle. Correctness and auditability win over
speed, and hard size budgets keep a stray call from wedging the process.
Generation order is deterministic.
"""

from __future__ import annotations

import os
from functools import lru_cache
from typing import Iterator

from .errors import BudgetError, PreconditionError
from .labeling import LabeledMap, distance_labels
from .rotmap import RotationMap

# Default caps on n (edges for maps and trees, faces for quadrangulations).
# Genus 3 starts at 6 edges, so its cap is its first size. A census over
# every genus at once (genus None) has its own cap. The environment
# variable below replaces the cap for every genus.
DEFAULT_BUDGETS = {0: 5, 1: 4, 2: 4, 3: 6}
_ALL_GENERA_BUDGET = 5
MAX_N_ENV = "SURFMAPS_MAX_N"


def _max_n(genus: int | None) -> int:
    override = os.environ.get(MAX_N_ENV)
    if override is not None:
        try:
            return int(override)
        except ValueError:
            raise BudgetError(
                f"{MAX_N_ENV} must be an integer, got {override!r}")
    if genus is None:
        return _ALL_GENERA_BUDGET
    return DEFAULT_BUDGETS.get(genus, min(DEFAULT_BUDGETS.values()))


def _check_size(n: int, genus: int | None, what: str) -> None:
    """The gate on a census request: n an int >= 1, genus None or an
    int >= 0."""
    if not isinstance(n, int) or n < 1:
        raise PreconditionError(f"{what} needs an integer n >= 1, got {n!r}")
    if genus is not None and not (isinstance(genus, int) and genus >= 0):
        raise PreconditionError(f"{what} at n={n} need genus None or an "
                                f"integer >= 0, got genus {genus!r}")


def _check_budget(n: int, genus: int | None, what: str) -> None:
    _check_size(n, genus, what)
    cap = _max_n(genus)
    if n > cap:
        raise BudgetError(
            f"census of {what} at n={n}, genus={genus} exceeds the budget "
            f"of {cap}; set {MAX_N_ENV} to raise it")


# -- all rooted maps ---------------------------------------------------------
#
# A rooted map has a canonical dart numbering (breadth-first from the root,
# scanning sigma then alpha). The generator fills the slots sigma(1),
# alpha(1), sigma(2), alpha(2), ... and only ever introduces the next fresh
# dart number, so it produces each rooted map exactly once, already in
# canonical numbering.


def _slot_search(n_darts: int) -> Iterator[tuple]:
    """Backtracking over rotation-system slots; yields (sigma, alpha) at
    complete leaves."""
    sig = [0] * (n_darts + 1)
    alf = [0] * (n_darts + 1)
    used = [False] * (n_darts + 2)

    def rec(d: int, stage: int, m: int) -> Iterator[tuple]:
        if d > n_darts:
            yield tuple(sig), tuple(alf)
            return
        if stage == 0 and d > m:
            # dart d never appeared in earlier slots: the numbering cannot
            # be canonical and the map cannot be connected
            return
        if stage == 1 and alf[d] != 0:
            yield from rec(d + 1, 0, m)
            return
        if stage == 0:
            cands = [v for v in range(1, m + 1) if not used[v]]
        else:
            cands = [v for v in range(1, m + 1) if alf[v] == 0 and v != d]
        if m < n_darts:
            cands.append(m + 1)
        for v in cands:
            m2 = m + 1 if v > m else m
            if stage == 0:
                sig[d] = v
                used[v] = True
                yield from rec(d, 1, m2)
                used[v] = False
                sig[d] = 0
            else:
                alf[d] = v
                alf[v] = d
                yield from rec(d + 1, 0, m2)
                alf[v] = 0
                alf[d] = 0

    yield from rec(1, 0, 1)


def iter_rooted_maps(n_edges: int,
                     genus: int | None = None) -> Iterator[RotationMap]:
    """Stream all rooted maps with n edges (all genera unless filtered),
    each exactly once, in canonical numbering. No budget applies."""
    _check_size(n_edges, genus, "rooted maps")
    for sigma, alpha in _slot_search(2 * n_edges):
        m = RotationMap(sigma, alpha)
        if genus is None or m.genus == genus:
            yield m


@lru_cache(maxsize=None)
def _rooted_maps_cached(n_edges: int,
                        genus: int | None) -> tuple[RotationMap, ...]:
    return tuple(iter_rooted_maps(n_edges, genus))


def enumerate_rooted_maps(n_edges: int,
                          genus: int | None = None) -> list[RotationMap]:
    """All rooted maps with n edges and the given genus, budget-checked."""
    _check_budget(n_edges, genus, "rooted maps")
    return list(_rooted_maps_cached(n_edges, genus))


# -- one-face maps -----------------------------------------------------------
#
# In a rooted map with a single face, numbering the darts along the face
# walk from the root turns the face permutation into the cycle
# (1 2 ... 2n). The map is then determined by the edge pairing alone:
# sigma(d) = alpha(d) + 1 cyclically. So one-face maps are exactly the
# fixed-point-free involutions of {1..2n}, and vertex degrees are the
# cycle lengths of the reconstructed rotation.


def iter_one_face_maps(n_edges: int, genus: int | None = None,
                       min_degree: int = 1) -> Iterator[RotationMap]:
    """Stream all rooted one-face maps with n edges, each exactly once.

    genus filters by vertex count; min_degree prunes any rotation cycle
    that closes below it, which is what makes degree-constrained runs
    (cores and scheme shapes) tractable. With a genus, the other vertices
    need min_degree darts each, so the search also prunes every rotation
    chain, open or closed, longer than
    n_darts - min_degree * (vertices - 1) (the max-degree prune). Both
    prunes cut only dead branches: the output and its order are those of
    the unpruned search filtered by degree. No budget applies.
    """
    _check_size(n_edges, genus, "one-face maps")
    if not isinstance(min_degree, int) or min_degree < 1:
        raise PreconditionError(
            f"need an integer min_degree >= 1, got {min_degree!r}")
    n_darts = 2 * n_edges
    target_v = None
    max_degree = n_darts
    if genus is not None:
        target_v = n_edges + 1 - 2 * genus
        if target_v < 1:
            return
        max_degree = n_darts - min_degree * (target_v - 1)
    alf = [0] * (n_darts + 1)
    # nxt is sigma where it is known; prv is its inverse. An unpaired dart
    # ends an open rotation chain, and the dart after it starts one.
    nxt = [0] * (n_darts + 1)
    prv = [0] * (n_darts + 1)
    out: list[RotationMap] = []

    def chain(start: int, other: int) -> tuple[int, bool, bool]:
        """Length of the rotation chain through start, whether it is a
        closed cycle, and whether it passes through other."""
        length = 1
        met = False
        x = nxt[start]
        while x and x != start:
            length += 1
            met = met or x == other
            x = nxt[x]
        if x:
            return length, True, met
        x = prv[start]
        while x:
            length += 1
            met = met or x == other
            x = prv[x]
        return length, False, met

    def rec(unpaired: int, closed: int, closed_darts: int) -> None:
        if unpaired == 0:
            sigma = (0,) + tuple(nxt[1:])
            alpha = (0,) + tuple(alf[1:])
            out.append(RotationMap(sigma, alpha))
            return
        d = next(x for x in range(1, n_darts + 1) if alf[x] == 0)
        d1 = d % n_darts + 1
        for e in range(d + 1, n_darts + 1):
            if alf[e] != 0:
                continue
            e1 = e % n_darts + 1
            alf[d], alf[e] = e, d
            nxt[d], nxt[e] = e1, d1
            prv[e1], prv[d1] = d, e
            c2, cd2 = closed, closed_darts
            ok = True
            hit = chain(d, e)
            # e lies on a second chain unless d's chain passes through it
            chains = [hit] if hit[2] else [hit, chain(e, d)]
            for length, is_cycle, _ in chains:
                if length > max_degree or (is_cycle and length < min_degree):
                    ok = False
                    break
                if is_cycle:
                    c2 += 1
                    cd2 += length
            if ok and target_v is not None:
                # every open rotation chain ends at an unpaired dart, so
                # unpaired-2 bounds how many vertex cycles can still form
                rest = n_darts - cd2
                if (c2 > target_v or rest < (target_v - c2) * min_degree
                        or (c2 == target_v and rest > 0)
                        or target_v - c2 > unpaired - 2):
                    ok = False
            if ok:
                rec(unpaired - 2, c2, cd2)
            alf[d] = alf[e] = 0
            nxt[d] = nxt[e] = 0
            prv[e1] = prv[d1] = 0

    rec(n_darts, 0, 0)
    yield from out


@lru_cache(maxsize=None)
def _one_face_cached(n_edges: int,
                     genus: int | None) -> tuple[RotationMap, ...]:
    return tuple(iter_one_face_maps(n_edges, genus))


def enumerate_g_trees(n_edges: int, genus: int) -> list[RotationMap]:
    """All rooted one-face maps of the given genus, budget-checked."""
    _check_budget(n_edges, genus, "one-face maps")
    return list(_one_face_cached(n_edges, genus))


# -- labelings ---------------------------------------------------------------


def _spanning_tree(m: RotationMap):
    """Breadth-first spanning tree from the root vertex.

    Returns (vertex order, dart from parent into each non-root vertex,
    per-dart tree-edge flags)."""
    vi = m.vertex_index
    seen = [False] * m.n_vertices
    order = [vi[m.root]]
    seen[order[0]] = True
    entry_dart = [0] * m.n_vertices
    tree = [False] * (m.n_darts + 1)
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for d in m.vertices[v]:
            w = vi[m.alpha[d]]
            if not seen[w]:
                seen[w] = True
                tree[d] = tree[m.alpha[d]] = True
                entry_dart[w] = d
                order.append(w)
    return order, entry_dart, tree


def _iter_relative_labelings(m: RotationMap) -> Iterator[tuple[int, ...]]:
    """All vertex labelings with every edge variation in {-1,0,+1}, up to
    translation: the root vertex is pinned at 0. Yields label tuples
    indexed like m.vertices."""
    order, entry_dart, tree = _spanning_tree(m)
    vi = m.vertex_index
    pos = {v: i for i, v in enumerate(order)}
    # a non-tree edge becomes checkable once its later endpoint is labeled
    checks: list[list[tuple[int, int]]] = [[] for _ in order]
    for d, ad in m.edges:
        if not tree[d]:
            a, b = vi[d], vi[ad]
            checks[max(pos[a], pos[b])].append((a, b))
    labels = [0] * m.n_vertices

    def rec(i: int) -> Iterator[tuple[int, ...]]:
        if i == len(order):
            yield tuple(labels)
            return
        w = order[i]
        base = labels[vi[entry_dart[w]]]
        for delta in (-1, 0, 1):
            labels[w] = base + delta
            if all(abs(labels[a] - labels[b]) <= 1 for a, b in checks[i]):
                yield from rec(i + 1)

    # step 0 constraints can only be loops at the root, always satisfied
    yield from rec(1)


def _embedded_trees(n_edges: int, genus: int) -> Iterator[LabeledMap]:
    for m in _one_face_cached(n_edges, genus):
        for rel in _iter_relative_labelings(m):
            yield LabeledMap(m, tuple(x + 1 for x in rel))


@lru_cache(maxsize=None)
def _wl_trees_cached(n_edges: int, genus: int) -> tuple[LabeledMap, ...]:
    # root label 1 and minimum 1 together: the root must realize the minimum
    return tuple(t for t in _embedded_trees(n_edges, genus)
                 if min(t.labels) == 1)


@lru_cache(maxsize=None)
def _embedded_trees_cached(n_edges: int, genus: int) -> tuple[LabeledMap, ...]:
    return tuple(_embedded_trees(n_edges, genus))


def enumerate_well_labeled_trees(n_edges: int, genus: int) -> list[LabeledMap]:
    """All rooted one-face maps of the genus with labels varying by at most
    1 along every edge, minimum label 1, and the root vertex labeled 1."""
    _check_budget(n_edges, genus, "well-labeled one-face maps")
    return list(_wl_trees_cached(n_edges, genus))


def enumerate_embedded_trees(n_edges: int, genus: int) -> list[LabeledMap]:
    """Same maps, labels varying by at most 1, root vertex labeled 1."""
    _check_budget(n_edges, genus, "embedded one-face maps")
    return list(_embedded_trees_cached(n_edges, genus))


# -- quadrangulations --------------------------------------------------------


def _is_bipartite(m: RotationMap) -> bool:
    dist = distance_labels(m, 1)
    vi = m.vertex_index
    return all((dist[vi[d]] - dist[vi[m.alpha[d]]]) % 2 == 1
               for d in range(1, m.n_darts + 1))


@lru_cache(maxsize=None)
def _rooted_quads_cached(n_faces: int,
                         genus: int | None) -> tuple[RotationMap, ...]:
    from .quad import map_to_quad
    return tuple(map_to_quad(m) for m in _rooted_maps_cached(n_faces, genus))


def enumerate_quadrangulations(n_faces: int, genus: int | None = None,
                               variant: str = "rooted") -> list:
    """Bipartite quadrangulations with n_faces faces at the given genus.

    variant "rooted" gives a list of maps; "rooted_pointed" a list of
    (map, vertex index) pairs; "pointed" one representative pair per
    isomorphism class of vertex-marked unrooted quadrangulations.
    """
    _check_budget(n_faces, genus, "quadrangulations")
    rooted = list(_rooted_quads_cached(n_faces, genus))
    if variant == "rooted":
        return rooted
    pairs = [(q, v) for q in rooted for v in range(q.n_vertices)]
    if variant == "rooted_pointed":
        return pairs
    if variant == "pointed":
        seen = set()
        out = []
        for q, v in pairs:
            key = q.pointed_key(v)
            if key not in seen:
                seen.add(key)
                out.append((q, v))
        return out
    raise PreconditionError(
        f"unknown variant {variant!r}; use rooted, rooted_pointed or pointed")


def iter_quadrangulations_direct(n_faces: int,
                                 genus: int | None = None
                                 ) -> Iterator[RotationMap]:
    """Filter every rooted map with 2*n_faces edges for quadrangular faces
    and bipartiteness. Independent of the correspondence used by
    enumerate_quadrangulations, so the two can cross-check each other."""
    for m in iter_rooted_maps(2 * n_faces, genus):
        if all(len(f) == 4 for f in m.faces) and _is_bipartite(m):
            yield m
