"""Core rotation-system machinery: structure, surgery, canonical forms."""

import dataclasses
import random
from collections import deque

import pytest

from surfmaps import (
    InternalCheckError,
    LabeledMap,
    PreconditionError,
    RotationMap,
    StructureError,
    add_edge_in_face,
    add_vertex_star,
    close_rooted_pointed,
    corner_face,
    delete_edges,
    delete_vertex_star,
    distance_labels,
    enumerate_quadrangulations,
    enumerate_well_labeled_trees,
    face_corners,
    next_corner,
    predecessor,
    random_rotation_map,
    sample_embedded_tree,
    validate,
)
from surfmaps.rotmap import _restrict_to_darts

# Hand-checked fixtures used throughout.


def path_map():
    # two edges sharing a middle vertex: vertices (1)(2 3)(4), one face
    return RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))


def figure_eight():
    # one vertex, two interleaved loops, one face, genus 1
    return RotationMap((0, 3, 4, 2, 1), (0, 2, 1, 4, 3))


def claw():
    # star with three leaves
    return RotationMap((0, 2, 3, 1, 4, 5, 6), (0, 4, 5, 6, 1, 2, 3))


def digon():
    # two vertices joined by a double edge
    return RotationMap((0, 3, 4, 1, 2), (0, 2, 1, 4, 3))


def one_vertex_antipodal(g):
    # 4g-cycle rotation with antipodal pairing, the classic genus-g map
    n = 4 * g
    sigma = (0,) + tuple(d % n + 1 for d in range(1, n + 1))
    alpha = (0,) + tuple((d - 1 + 2 * g) % n + 1 for d in range(1, n + 1))
    return RotationMap(sigma, alpha)


class TestStructure:
    def test_path_map_counts(self):
        m = path_map()
        assert m.n_vertices == 3
        assert m.n_edges == 2
        assert m.n_faces == 1
        assert m.genus == 0
        assert m.faces == ((1, 3, 4, 2),)

    def test_figure_eight_counts(self):
        m = figure_eight()
        assert m.n_vertices == 1
        assert m.n_faces == 1
        assert m.genus == 1

    def test_antipodal_genus(self):
        for g in (1, 2, 3):
            m = one_vertex_antipodal(g)
            assert m.n_vertices == 1
            assert m.n_faces == 1
            assert m.genus == g

    def test_claw_face(self):
        m = claw()
        assert m.n_faces == 1
        assert m.faces == ((1, 4, 2, 5, 3, 6),)

    def test_digon_faces(self):
        m = digon()
        assert m.n_faces == 2
        assert m.genus == 0

    def test_rejects_non_involution(self):
        with pytest.raises(StructureError):
            RotationMap((0, 2, 1), (0, 1, 2))

    def test_rejects_fixed_point(self):
        with pytest.raises(StructureError, match="fixes"):
            RotationMap((0, 1, 2, 4, 3), (0, 1, 2, 4, 3))

    def test_rejects_disconnected(self):
        # two separate loops
        with pytest.raises(StructureError, match="disconnected"):
            RotationMap((0, 2, 1, 4, 3), (0, 2, 1, 4, 3))

    def test_rejects_bad_root(self):
        with pytest.raises(StructureError, match="root"):
            RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3), root=5)

    def test_rejects_non_permutation(self):
        with pytest.raises(StructureError, match="sigma"):
            RotationMap((0, 1, 1, 2, 4), (0, 2, 1, 4, 3))


# One case per StructureError branch of the constructor:
# (sigma, alpha, root, words the message must hold).
PATH_SIGMA, PATH_ALPHA = (0, 1, 3, 2, 4), (0, 2, 1, 4, 3)
BAD_ARRAYS = {
    "odd dart count": ((0, 2, 3, 1), (0, 2, 1, 3), 1, "dart count 3"),
    "no darts": ((0,), (0,), 1, "dart count 0"),
    "empty sigma": ((), (), 1, "dart count -1"),
    "alpha too long": ((0, 2, 1), PATH_ALPHA, 1, "alpha has 4 entries"),
    "alpha too short": (PATH_SIGMA, (0, 2, 1), 1, "alpha has 2 entries"),
    "sigma slot 0": ((1, 2, 1), (0, 2, 1), 1, "slot 0"),
    "alpha slot 0": ((0, 2, 1), (2, 2, 1), 1, "slot 0"),
    "sigma entry 0": ((0, 0, 1), (0, 2, 1), 1, r"sigma\[1\] = 0 is out"),
    "sigma entry too big": ((0, 1, 3), (0, 2, 1), 1, r"sigma\[2\] = 3 is out"),
    "sigma entry negative": ((0, -1, 1), (0, 2, 1), 1, r"sigma\[1\] = -1"),
    "sigma float": ((0, 2.0, 1), (0, 2, 1), 1, r"sigma\[1\] = 2.0"),
    "sigma str": ((0, 2, "1"), (0, 2, 1), 1, r"sigma\[2\] = '1'"),
    "sigma not injective": ((0, 1, 1, 2, 4), PATH_ALPHA, 1,
                            "sigma is not injective"),
    "sigma cycle into a cycle": ((0, 2, 3, 2, 4), PATH_ALPHA, 1,
                                 "sigma is not injective at dart 3"),
    "alpha entry 0": ((0, 2, 1), (0, 0, 1), 1, r"alpha\[1\] = 0 is out"),
    "alpha entry too big": ((0, 2, 1), (0, 3, 1), 1, r"alpha\[1\] = 3 is out"),
    "alpha float": ((0, 2, 1), (0, 2.0, 1), 1, r"alpha\[1\] = 2.0"),
    "alpha str": ((0, 2, 1), (0, "2", 1), 1, r"alpha\[1\] = '2'"),
    "alpha fixed point": ((0, 1, 2, 4, 3), (0, 1, 2, 4, 3), 1, "fixes dart 1"),
    "alpha not involution": ((0, 2, 3, 4, 1), (0, 2, 3, 4, 1), 1,
                             "not an involution at dart 1"),
    "alpha not injective": ((0, 2, 3, 4, 1), (0, 2, 1, 2, 1), 1,
                            "not an involution at dart 3"),
    "disconnected": ((0, 2, 1, 4, 3), (0, 2, 1, 4, 3), 1,
                     "disconnected: dart 3 unreachable"),
    "root too big": (PATH_SIGMA, PATH_ALPHA, 5, "root dart 5"),
    "root zero": (PATH_SIGMA, PATH_ALPHA, 0, "root dart 0"),
    "root float": (PATH_SIGMA, PATH_ALPHA, 1.0, "root dart 1.0"),
    "root str": (PATH_SIGMA, PATH_ALPHA, "1", "root dart '1'"),
    "root None": (PATH_SIGMA, PATH_ALPHA, None, "root dart None"),
}


@pytest.mark.parametrize("sigma, alpha, root, words",
                         list(BAD_ARRAYS.values()), ids=list(BAD_ARRAYS))
def test_constructor_rejects(sigma, alpha, root, words):
    with pytest.raises(StructureError, match=words):
        RotationMap(sigma, alpha, root)


@pytest.mark.parametrize("root", [5, 0, 1.0, "1", None])
def test_constructor_agrees_with_validate_on_root(root):
    assert not validate(PATH_SIGMA[1:], PATH_ALPHA[1:], root).root_ok
    with pytest.raises(StructureError, match="root"):
        RotationMap(PATH_SIGMA, PATH_ALPHA, root)


def _orbits_by_sets(perm):
    """Cycles of a 1-indexed permutation, least element first, sorted:
    a reference written apart from the constructor's walker."""
    left = set(range(1, len(perm)))
    out = []
    while left:
        cyc = [min(left)]
        while perm[cyc[-1]] != cyc[0]:
            cyc.append(perm[cyc[-1]])
        left.difference_update(cyc)
        out.append(tuple(cyc))
    return tuple(out)


def _index_of(orbits, n_darts):
    where = {d: i for i, orb in enumerate(orbits) for d in orb}
    return (0,) + tuple(where[d] for d in range(1, n_darts + 1))


def _derived_maps():
    for seed in range(4):
        rng = random.Random(seed)
        for n_edges in range(1, 9):
            yield random_rotation_map(rng, n_edges)
    for seed in (1, 2):
        t = sample_embedded_tree(2 ** 10, seed=seed)
        for sign in (1, -1):
            yield close_rooted_pointed(t, sign).quad


def test_derived_structure_matches_reference():
    for m in _derived_maps():
        n = m.n_darts
        phi = (0,) + tuple(m.sigma[m.alpha[d]] for d in range(1, n + 1))
        assert m.phi == phi
        assert m.vertices == _orbits_by_sets(m.sigma)
        assert m.faces == _orbits_by_sets(phi)
        assert m.vertex_index == _index_of(m.vertices, n)
        assert m.face_index == _index_of(m.faces, n)
        assert m.n_vertices - m.n_edges + m.n_faces == 2 - 2 * m.genus
        assert m.dual().dual() == m


def test_equality_and_hash_ignore_derived_attributes():
    assert [f.name for f in dataclasses.fields(RotationMap)] == [
        "sigma", "alpha", "root"]
    m = claw()
    twin = RotationMap(list(m.sigma), list(m.alpha), m.root)
    for name in ("phi", "vertices", "vertex_index", "faces", "face_index",
                 "genus"):
        object.__setattr__(twin, name, None)
    assert twin == m and hash(twin) == hash(m)
    assert twin != m.reroot(2)


class TestDual:
    def test_dual_involution_exact(self):
        for m in (path_map(), figure_eight(), claw(), digon(),
                  one_vertex_antipodal(2)):
            assert m.dual().dual() == m

    def test_dual_swaps_counts(self):
        for m in (path_map(), figure_eight(), digon()):
            d = m.dual()
            assert d.n_vertices == m.n_faces
            assert d.n_faces == m.n_vertices
            assert d.genus == m.genus


class TestCorners:
    def test_face_corners_of_path(self):
        m = path_map()
        # face walk 1,3,4,2 visits corners alpha of each arc
        assert face_corners(m, 1) == (2, 4, 3, 1)

    def test_next_corner_cycles(self):
        m = claw()
        c = 1
        seen = [c]
        for _ in range(5):
            c = next_corner(m, c)
            seen.append(c)
        assert next_corner(m, c) == 1
        assert sorted(seen) == [1, 2, 3, 4, 5, 6]


class TestAddEdge:
    def test_split_face_counts(self):
        m = path_map()
        m2 = add_edge_in_face(m, 1, 4)
        assert m2.n_edges == 3
        assert m2.n_faces == 2
        assert m2.genus == 0

    def test_digon_when_corners_consecutive(self):
        # joining corners on both sides of a single arc yields a 2-face
        m = path_map()
        walk = face_corners(m, 1)
        c1, c2 = walk[0], walk[1]
        m2 = add_edge_in_face(m, c1, c2)
        degs = sorted(len(f) for f in m2.faces)
        assert degs == [2, 4]

    def test_loop_insertion_same_corner(self):
        # a loop on one corner cuts off a face of degree 1
        m = path_map()
        m2 = add_edge_in_face(m, 1, 1)
        degs = sorted(len(f) for f in m2.faces)
        assert degs == [1, 5]
        assert m2.genus == 0

    def test_rejects_distinct_faces(self):
        m = digon()
        # corners 1 and 2 sit on different faces
        assert corner_face(m, 1) != corner_face(m, 2)
        with pytest.raises(PreconditionError):
            add_edge_in_face(m, 1, 2)


class TestVertexStar:
    def test_star_in_path_face(self):
        m = path_map()
        corners = face_corners(m, 1)  # all four corners of the only face
        m2 = add_vertex_star(m, corners)
        assert m2.n_vertices == 4
        assert m2.n_edges == 6
        assert m2.n_faces == 4
        assert m2.genus == 0
        assert all(len(f) == 3 for f in m2.faces)

    def test_star_accepts_rotation(self):
        m = path_map()
        walk = face_corners(m, 1)
        rotated = walk[2:] + walk[:2]
        assert add_vertex_star(m, rotated).n_faces == 4

    def test_star_rejects_shuffled_corners(self):
        m = path_map()
        walk = list(face_corners(m, 1))
        bad = [walk[0], walk[2], walk[1], walk[3]]
        with pytest.raises(PreconditionError, match="order"):
            add_vertex_star(m, bad)

    def test_single_corner_star_is_pendant(self):
        m = path_map()
        m2 = add_vertex_star(m, [1])
        assert m2.n_vertices == 4
        assert m2.n_edges == 3
        assert m2.n_faces == 1


class TestDeletion:
    def test_delete_undoes_add(self):
        m = path_map()
        m2 = add_edge_in_face(m, 1, 4)
        back = delete_edges(m2, [5])
        assert back == m

    def test_delete_rejects_bridge(self):
        m = path_map()
        with pytest.raises(PreconditionError, match="cycle of dual"):
            delete_edges(m, [1])

    def test_delete_rejects_isolating_loop(self):
        # loop plus pendant edge: deleting the loop would strand nothing,
        # deleting it together with nothing else is fine, but deleting a
        # lone vertex's loop is refused
        loop_only = RotationMap((0, 2, 1), (0, 2, 1))
        with pytest.raises(PreconditionError):
            delete_edges(loop_only, [1])

    def test_delete_one_of_digon(self):
        m = digon()
        out = delete_edges(m, [3])
        assert out.n_edges == 1
        assert out.n_faces == 1

    def test_dart_map_tracks_renumbering(self):
        m = digon()
        out, dmap = _restrict_to_darts(m, [1, 2], None)
        assert set(dmap.keys()) == {1, 2}
        assert out.alpha[dmap[1]] == dmap[2]
        assert out.root == dmap[m.root]
        # survivors keep their order; the star of a vanishing vertex goes
        out, dmap = _restrict_to_darts(path_map(), [3, 4], 3,
                                       may_vanish=frozenset({0}))
        assert dmap == {3: 1, 4: 2}
        assert (out.sigma, out.alpha, out.root) == ((0, 1, 2), (0, 2, 1), 1)

    def test_root_deleted_without_replacement(self):
        m = digon()
        with pytest.raises(PreconditionError, match="root"):
            delete_edges(m, [m.root])

    def test_new_root_must_survive(self):
        m = digon()
        with pytest.raises(PreconditionError):
            delete_edges(m, [1], new_root=2)

    def test_delete_vertex_star_roundtrip(self):
        m = path_map()
        corners = face_corners(m, 1)
        m2 = add_vertex_star(m, corners)
        back = delete_vertex_star(m2, m2.n_darts)
        assert back == m

    def test_delete_vertex_rejects_loop(self):
        m = figure_eight()
        with pytest.raises(PreconditionError, match="loop"):
            delete_vertex_star(m, 1)

    def test_delete_vertex_rejects_repeated_face(self):
        # middle vertex of the path map sees its single face twice
        m = path_map()
        with pytest.raises(PreconditionError, match="more than once"):
            delete_vertex_star(m, 2)

    def test_delete_vertex_rejects_emptying(self):
        m = digon()
        with pytest.raises(PreconditionError, match="empty"):
            delete_vertex_star(m, 1)


class TestCanonical:
    def test_canonical_idempotent(self):
        m = figure_eight()
        c = m.canonical()
        assert c.canonical() == c

    def test_canonical_key_relabel_invariant(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_rotation_map(rng, rng.randrange(1, 5))
            darts = list(range(1, m.n_darts + 1))
            rng.shuffle(darts)
            perm = (0,) + tuple(darts)
            assert m.relabel(perm).canonical_key() == m.canonical_key()

    def test_rootings_of_figure_eight(self):
        m = figure_eight()
        keys = {m.reroot(d).canonical_key() for d in range(1, 5)}
        # all four rootings are isomorphic rooted maps here
        assert len(keys) == 1
        assert len({m.reroot(d).unrooted_key() for d in range(1, 5)}) == 1

    def test_distinct_maps_distinct_keys(self):
        assert path_map().canonical_key() != claw().canonical_key()

    @pytest.mark.parametrize("perm,words", [
        ((0, 2, 1, 4), "3 entries, expected 4"),
        ((0, 2, 1, 5, 3), "out of range"),
        ((0, 2, 1, 4, 2), "not injective"),
    ], ids=["short", "out-of-range", "repeated"])
    def test_relabel_rejects_non_permutation(self, perm, words):
        with pytest.raises(StructureError, match=words):
            path_map().relabel(perm)


def _bfs_perm(m, root):
    """Breadth-first dart numbering from root, sigma before alpha: the
    numbering every key is defined by, written apart from the library."""
    rho = {root: 1}
    queue = deque([root])
    while queue:
        d = queue.popleft()
        for e in (m.sigma[d], m.alpha[d]):
            if e not in rho:
                rho[e] = len(rho) + 1
                queue.append(e)
    return (0,) + tuple(rho[d] for d in range(1, m.n_darts + 1))


def _assert_keys_match_relabel_reference(m, labels):
    lm = LabeledMap(m, labels)
    rooted = {}
    for d in range(1, m.n_darts + 1):
        perm = _bfs_perm(m, d)
        c = m.reroot(d).relabel(perm)
        first = [min(perm[x] for x in orb) for orb in m.vertices]
        order = sorted(range(m.n_vertices), key=first.__getitem__)
        rooted[d] = (c, first, tuple(labels[i] for i in order))
    c, first, labs = rooted[m.root]
    assert m.canonical() == c
    assert m.canonical_key() == (c.sigma, c.alpha)
    assert lm.canonical_key() == (c.sigma, c.alpha, labs)
    assert m.unrooted_key() == min((c.sigma, c.alpha)
                                   for c, _, _ in rooted.values())
    assert lm.unrooted_key() == min((c.sigma, c.alpha, labs)
                                    for c, _, labs in rooted.values())
    for v in range(m.n_vertices):
        assert m.rooted_pointed_key(v) == (c.sigma, c.alpha, first[v])
        assert m.pointed_key(v) == min((c.sigma, c.alpha, first[v])
                                       for c, first, _ in rooted.values())


def test_walk_keys_match_relabel_reference():
    rng = random.Random(11)
    for _ in range(3):
        for n_edges in range(1, 9):
            m = random_rotation_map(rng, n_edges)
            labels = tuple(rng.randint(0, 3) for _ in range(m.n_vertices))
            _assert_keys_match_relabel_reference(m, labels)
    for n, g in ((1, 0), (2, 0), (3, 0), (4, 0), (2, 1), (3, 1)):
        for q in enumerate_quadrangulations(n, g):
            _assert_keys_match_relabel_reference(
                q, tuple(range(q.n_vertices)))
        for t in enumerate_well_labeled_trees(n, g):
            _assert_keys_match_relabel_reference(t.map, t.labels)


NON_INT_INDEX = {
    "reroot-float": lambda m: m.reroot(1.0),
    "reroot-str": lambda m: m.reroot("1"),
    "pointed_key": lambda m: m.pointed_key(1.0),
    "rooted_pointed_key": lambda m: m.rooted_pointed_key(1.0),
    "distance_labels": lambda m: distance_labels(m, 1.0),
    "predecessor": lambda m: predecessor(LabeledMap(m, (1, 2, 1)), 1.0),
    "delete_edges": lambda m: delete_edges(m, [1.0]),
    "delete_vertex_star": lambda m: delete_vertex_star(m, "2"),
    "add_edge_in_face-high": lambda m: add_edge_in_face(m, 99, 1),
    "add_edge_in_face-zero": lambda m: add_edge_in_face(m, 0, 0),
    "add_edge_in_face-float": lambda m: add_edge_in_face(m, 1, 1.0),
    "add_vertex_star-zero": lambda m: add_vertex_star(m, [0]),
    "add_vertex_star-negative": lambda m: add_vertex_star(m, [-1]),
    "add_vertex_star-high": lambda m: add_vertex_star(m, [9]),
    "add_vertex_star-float": lambda m: add_vertex_star(m, [1.0]),
}


@pytest.mark.parametrize("call", list(NON_INT_INDEX.values()),
                         ids=list(NON_INT_INDEX))
def test_non_int_index_is_out_of_range(call):
    with pytest.raises(PreconditionError, match="out of range"):
        call(path_map())


def test_random_rotation_map_needs_int_edges():
    with pytest.raises(PreconditionError, match="integer number of edges"):
        random_rotation_map(random.Random(0), 2.0)


class TestValidate:
    def test_good_map(self):
        d = validate([3, 4, 2, 1], [2, 1, 4, 3], 1)
        assert d.ok
        assert d.genus == 1
        assert (d.n_vertices, d.n_edges, d.n_faces) == (1, 2, 1)

    def test_bad_sigma(self):
        d = validate([1, 1, 2, 4], [2, 1, 4, 3])
        assert not d.sigma_ok
        assert not d.ok

    def test_alpha_fixed_point(self):
        d = validate([2, 1, 4, 3], [1, 2, 4, 3])
        assert not d.alpha_ok

    def test_disconnected(self):
        d = validate([2, 1, 4, 3], [2, 1, 4, 3])
        assert d.sigma_ok and d.alpha_ok
        assert not d.connected
        assert d.genus is None

    def test_odd_dart_count(self):
        d = validate([2, 3, 1], [2, 1, 3])
        assert (d.n_darts, d.sigma_ok, d.alpha_ok) == (3, False, False)
        assert not d.ok

    def test_root_out_of_range(self):
        d = validate([3, 4, 2, 1], [2, 1, 4, 3], 5)
        assert d.sigma_ok and d.alpha_ok
        assert not d.root_ok
        assert not d.ok and d.genus is None

    def test_non_integer_entry(self):
        d = validate([1, 2.0], [2, 1])
        assert not d.sigma_ok and d.alpha_ok
        d = validate([1, 2], [2, "1"])
        assert d.sigma_ok and not d.alpha_ok


class TestRandomMaps:
    def test_requested_genus(self):
        rng = random.Random(11)
        for g in (0, 1):
            m = random_rotation_map(rng, 3, genus=g)
            assert m.genus == g
            assert m.n_edges == 3

    def test_euler_always_consistent(self):
        rng = random.Random(13)
        for _ in range(200):
            m = random_rotation_map(rng, rng.randrange(1, 6))
            chi = m.n_vertices - m.n_edges + m.n_faces
            assert chi == 2 - 2 * m.genus

    def test_surgery_invariants_random(self):
        rng = random.Random(17)
        for _ in range(300):
            m = random_rotation_map(rng, rng.randrange(1, 5))
            walk = face_corners(m, rng.randrange(1, m.n_darts + 1))
            c1, c2 = rng.choice(walk), rng.choice(walk)
            m2 = add_edge_in_face(m, c1, c2)
            assert m2.genus == m.genus
            back = delete_edges(m2, [m2.n_darts], new_root=m.root)
            assert back == m
