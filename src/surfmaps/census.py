"""Exhaustive generation of small rooted maps, one-face maps, labeled
trees, and quadrangulations.

Everything here is an oracle. Correctness and auditability win over
speed, and hard size budgets keep a stray call from wedging the process.
Generation order is deterministic.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import product
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


def _env_cap(name: str, default: int) -> int:
    """The integer cap set in environment variable ``name``, else
    ``default``; BudgetError if it is set to anything but an integer."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise BudgetError(f"{name} must be an integer, got {raw!r}")


def _max_n(genus: int | None) -> int:
    if genus is None:
        default = _ALL_GENERA_BUDGET
    else:
        default = DEFAULT_BUDGETS.get(genus, min(DEFAULT_BUDGETS.values()))
    return _env_cap(MAX_N_ENV, default)


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


def _check_tree_budget(n: int, genus: int, what: str) -> None:
    """The gate on a tree census, which is per genus: as _check_budget,
    with genus None refused."""
    if genus is None:
        raise PreconditionError(f"{what} at n={n} need an integer genus "
                                f">= 0, got genus None")
    _check_budget(n, genus, what)


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
    """All rooted one-face maps with n edges, each exactly once.

    The search pairs the first unpaired dart d with each unpaired e > d
    in turn, so the maps come in lexicographic order of alpha. The
    pairing adds the rotation arcs d -> e+1 and e -> d+1. Each unpaired
    dart t ends an open rotation chain, and t+1 starts one; the chain
    keeps its endpoints and length at its two ends (head[t] at its tail,
    tail[h] and size[h] at its head), so each arc is one O(1) join of
    two chain ends, undone on backtrack. An arc whose tail lies on the
    chain that starts at its target closes a vertex of that chain's
    length. The search fills a list and yields only once it ends, so the
    first map comes no sooner than the last; a generator inside the
    search read slower at genus 3.

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
    # nothing is paired yet: every dart is a chain of its own
    head = list(range(n_darts + 1))
    tail = list(range(n_darts + 1))
    size = [1] * (n_darts + 1)
    out: list[RotationMap] = []

    def rec(d: int, unpaired: int, closed: int, closed_darts: int) -> None:
        if unpaired == 0:
            # sigma(x) = alpha(x) + 1 in the face-walk numbering
            sigma = (0,) + tuple(a % n_darts + 1 for a in alf[1:])
            out.append(RotationMap(sigma, tuple(alf)))
            return
        d1 = d % n_darts + 1
        for e in range(d + 1, n_darts + 1):
            if alf[e] != 0:
                continue
            e1 = e % n_darts + 1
            c2, cd2 = closed, closed_darts
            # arc d -> e1: d ends the chain that starts at ha, e1 starts
            # the chain that ends at tb
            ha, sb = head[d], size[e1]
            tb = 0
            if ha == e1:
                if sb < min_degree or sb > max_degree:
                    continue
                c2 += 1
                cd2 += sb
            else:
                sa = size[ha]
                if sa + sb > max_degree:
                    continue
                tb = tail[e1]
                head[tb], tail[ha], size[ha] = ha, tb, sa + sb
            # arc e -> d1, on the chains as the first arc left them
            hc, sd = head[e], size[d1]
            td = 0
            if hc == d1:
                ok = min_degree <= sd <= max_degree
                c2 += 1
                cd2 += sd
            else:
                sc = size[hc]
                ok = sc + sd <= max_degree
                if ok:
                    td = tail[d1]
                    head[td], tail[hc], size[hc] = hc, td, sc + sd
            if ok and target_v is not None:
                # every open rotation chain ends at an unpaired dart, so
                # unpaired-2 bounds how many vertex cycles can still form
                rest = n_darts - cd2
                if (c2 > target_v or rest < (target_v - c2) * min_degree
                        or (c2 == target_v and rest > 0)
                        or target_v - c2 > unpaired - 2):
                    ok = False
            if ok:
                alf[d], alf[e] = e, d
                nd = d + 1
                while nd <= n_darts and alf[nd] != 0:
                    nd += 1
                rec(nd, unpaired - 2, c2, cd2)
                alf[d] = alf[e] = 0
            if td:
                head[td], tail[hc], size[hc] = d1, e, sc
            if tb:
                head[tb], tail[ha], size[ha] = e1, d, sa

    rec(1, n_darts, 0, 0)
    yield from out


@lru_cache(maxsize=None)
def _one_face_cached(n_edges: int,
                     genus: int | None) -> tuple[RotationMap, ...]:
    return tuple(iter_one_face_maps(n_edges, genus))


def enumerate_g_trees(n_edges: int, genus: int) -> list[RotationMap]:
    """All rooted one-face maps of the given genus, budget-checked."""
    _check_tree_budget(n_edges, genus, "one-face maps")
    return list(_one_face_cached(n_edges, genus))


# -- labelings ---------------------------------------------------------------


def _iter_relative_labelings(m: RotationMap) -> Iterator[tuple[int, ...]]:
    """All vertex labelings with every edge variation in {-1,0,+1}, up to
    translation: the root vertex is pinned at 0. Yields label tuples
    indexed like m.vertices.

    One breadth-first pass from the root vertex gives a spanning tree.
    Every step along its edges, in breadth-first order, is a candidate,
    kept when each other edge varies by at most 1."""
    vi = m.vertex_index
    parent = [None] * m.n_vertices
    order = [vi[m.root]]
    parent[order[0]] = order[0]
    tree = [False] * (m.n_darts + 1)
    for v in order:
        for d in m.vertices[v]:
            w = vi[m.alpha[d]]
            if parent[w] is None:
                parent[w] = v
                tree[d] = tree[m.alpha[d]] = True
                order.append(w)
    others = [(vi[d], vi[e]) for d, e in m.edges if not tree[d]]
    labels = [0] * m.n_vertices
    for steps in product((-1, 0, 1), repeat=len(order) - 1):
        # breadth-first order labels each parent before its children
        for w, step in zip(order[1:], steps):
            labels[w] = labels[parent[w]] + step
        if all(abs(labels[a] - labels[b]) <= 1 for a, b in others):
            yield tuple(labels)


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
    _check_tree_budget(n_edges, genus, "well-labeled one-face maps")
    return list(_wl_trees_cached(n_edges, genus))


def enumerate_embedded_trees(n_edges: int, genus: int) -> list[LabeledMap]:
    """Same maps, labels varying by at most 1, root vertex labeled 1."""
    _check_tree_budget(n_edges, genus, "embedded one-face maps")
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
    _check_size(n_faces, genus, "quadrangulations")
    for m in iter_rooted_maps(2 * n_faces, genus):
        if all(len(f) == 4 for f in m.faces) and _is_bipartite(m):
            yield m
