"""Opening and closure between pointed quadrangulations and labeled maps."""

import hashlib
from collections import Counter

import pytest

from surfmaps import (
    LabeledMap,
    PointedQuad,
    PreconditionError,
    RotationMap,
    close,
    close_rooted,
    close_rooted_pointed,
    distance_labels,
    enumerate_embedded_trees,
    enumerate_quadrangulations,
    enumerate_well_labeled_trees,
    is_embedded,
    is_well_labeled,
    map_to_quad,
    open_rooted,
    open_rooted_pointed,
    predecessor,
    quad_to_map,
    relabel_nu,
    shift_min_1,
    write_map_text,
)
from surfmaps import bijection
from surfmaps.bijection import open as open_map
from surfmaps.sampler import sample_embedded_tree
from surfmaps.schemes import graft, reduce


@pytest.fixture
def path_quad():
    # black-white-black path, one face of degree 4
    return RotationMap((0, 1, 4, 3, 2), (0, 2, 1, 4, 3))


@pytest.fixture
def cycle_quad():
    # four-cycle, two faces of degree 4
    return RotationMap((0, 8, 3, 2, 5, 4, 7, 6, 1),
                       (0, 2, 1, 4, 3, 6, 5, 8, 7))


@pytest.fixture
def link():
    return RotationMap((0, 1, 2), (0, 2, 1))


@pytest.fixture
def path3():
    return RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))


class TestPredecessor:
    def test_steps_down_one(self, path_quad):
        lm = LabeledMap(path_quad, (0, 1, 2))
        assert predecessor(lm, 3) == 4

    def test_label_one_reaches_basepoint_corner(self, path_quad):
        lm = LabeledMap(path_quad, (0, 1, 2))
        assert predecessor(lm, 4) == 1
        assert predecessor(lm, 2) == 1

    def test_rejects_label_zero(self, path_quad):
        lm = LabeledMap(path_quad, (0, 1, 2))
        with pytest.raises(PreconditionError, match="at least 1"):
            predecessor(lm, 1)

    def test_rejects_out_of_range(self, path_quad):
        lm = LabeledMap(path_quad, (0, 1, 2))
        with pytest.raises(PreconditionError, match="out of range"):
            predecessor(lm, 9)

    def test_rejects_face_without_smaller_label(self, cycle_quad):
        lm = LabeledMap(cycle_quad, (1, 2, 1, 2))
        with pytest.raises(PreconditionError, match="no corner labeled 0"):
            predecessor(lm, 1)


class TestOpeningDeskExamples:
    def test_path_quad_at_endpoint(self, path_quad, link):
        t = open_map(PointedQuad(path_quad, 0))
        assert t.map.n_edges == 1
        assert sorted(t.labels) == [1, 2]
        assert t.unrooted_key() == LabeledMap(link, (1, 2)).unrooted_key()

    def test_path_quad_at_middle(self, path_quad, link):
        t = open_map(PointedQuad(path_quad, 1))
        assert t.labels == (1, 1)
        assert t.unrooted_key() == LabeledMap(link, (1, 1)).unrooted_key()

    def test_path_quad_at_other_endpoint(self, path_quad):
        t = open_map(PointedQuad(path_quad, 2))
        assert sorted(t.labels) == [1, 2]

    def test_cycle_quad_gives_labeled_path(self, cycle_quad, path3):
        keys = set()
        for v in range(4):
            t = open_map(PointedQuad(cycle_quad, v))
            assert t.map.n_edges == 2
            assert t.map.n_faces == 1
            assert t.map.genus == 0
            assert sorted(t.labels) == [1, 1, 2]
            two = t.labels.index(2)
            assert len(t.map.vertices[two]) == 2
            keys.add(t.unrooted_key())
        # the four basepoints are all alike
        assert keys == {LabeledMap(path3, (1, 2, 1)).unrooted_key()}


class TestClosureDeskExamples:
    def test_one_edge_tree_labels_1_2(self, link, path_quad):
        pq = close(LabeledMap(link, (1, 2)))
        assert pq.quad.pointed_key(pq.basepoint) == path_quad.pointed_key(0)
        assert len(pq.quad.vertices[pq.basepoint]) == 1

    def test_one_edge_tree_labels_1_1(self, link, path_quad):
        pq = close(LabeledMap(link, (1, 1)))
        assert pq.quad.pointed_key(pq.basepoint) == path_quad.pointed_key(1)
        assert len(pq.quad.vertices[pq.basepoint]) == 2

    def test_labeled_path_gives_cycle_quad(self, path3, cycle_quad):
        pq = close(LabeledMap(path3, (1, 2, 1)))
        assert pq.quad.pointed_key(pq.basepoint) == cycle_quad.pointed_key(0)


# both entry points that take a quadrangulation with a basepoint
POINTED_ENTRIES = (PointedQuad, open_rooted_pointed)


class TestValidation:
    def test_pointed_quad_rejects_wrong_degrees(self, link):
        for make in POINTED_ENTRIES:
            with pytest.raises(PreconditionError, match="degree"):
                make(link, 0)

    def test_pointed_quad_rejects_bad_basepoint(self, path_quad):
        for make in POINTED_ENTRIES:
            for v0 in (3, -1):
                with pytest.raises(PreconditionError, match="out of range"):
                    make(path_quad, v0)

    @pytest.mark.parametrize("v0", [1.0, "1"])
    @pytest.mark.parametrize("make", POINTED_ENTRIES)
    def test_pointed_quad_rejects_non_integer_basepoint(self, path_quad,
                                                        make, v0):
        with pytest.raises(PreconditionError, match="out of range"):
            make(path_quad, v0)

    def test_open_rooted_rejects_non_quad(self, link):
        with pytest.raises(PreconditionError):
            open_rooted(link)

    def test_close_needs_one_face(self, cycle_quad):
        lm = LabeledMap(cycle_quad, (1, 1, 1, 1))
        with pytest.raises(PreconditionError, match="one-face"):
            close(lm)

    def test_close_needs_small_variations(self, link):
        with pytest.raises(PreconditionError):
            close(LabeledMap(link, (1, 3)))

    def test_close_needs_minimum_one(self, link):
        with pytest.raises(PreconditionError):
            close(LabeledMap(link, (2, 3)))

    def test_close_rooted_needs_root_label_one(self, link):
        with pytest.raises(PreconditionError, match="root label"):
            close_rooted(LabeledMap(link, (2, 1)))

    def test_close_rooted_pointed_checks_sign(self, link):
        with pytest.raises(PreconditionError, match="sign"):
            close_rooted_pointed(LabeledMap(link, (1, 2)), 0)

    def test_close_rooted_pointed_needs_embedded(self, link):
        with pytest.raises(PreconditionError):
            close_rooted_pointed(LabeledMap(link, (2, 1)), 1)

    def test_close_rooted_pointed_allows_label_zero(self, link, path_quad):
        pq = close_rooted_pointed(LabeledMap(link, (1, 0)), 1)
        assert pq.quad.pointed_key(pq.basepoint) == path_quad.pointed_key(0)


ROOTED_CASES = [(1, 0), (2, 0), (3, 0), (2, 1), (3, 1)]


class TestRootedRoundtrip:
    @pytest.mark.parametrize("n,g", ROOTED_CASES)
    def test_quad_tree_quad(self, n, g):
        quads = enumerate_quadrangulations(n, g)
        tree_keys = {t.canonical_key()
                     for t in enumerate_well_labeled_trees(n, g)}
        seen = set()
        for q in quads:
            t = open_rooted(q)
            assert t.map.n_faces == 1
            assert t.map.n_edges == n
            assert t.map.genus == g
            assert is_well_labeled(t) and t.root_label == 1
            dist = distance_labels(q, q.root)
            assert sorted(t.labels) == sorted(x for x in dist if x > 0)
            k = t.canonical_key()
            assert k in tree_keys
            seen.add(k)
            assert close_rooted(t).canonical_key() == q.canonical_key()
        # the opening is onto the well-labeled census, hence bijective
        assert seen == tree_keys

    @pytest.mark.parametrize("n,g", ROOTED_CASES)
    def test_tree_quad_tree(self, n, g):
        for t in enumerate_well_labeled_trees(n, g):
            q = close_rooted(t)
            t2 = open_rooted(q)
            assert t2.canonical_key() == t.canonical_key()


POINTED_CASES = [(1, 0), (2, 0), (3, 0), (2, 1)]


class TestRootedPointed:
    @pytest.mark.parametrize("n,g", POINTED_CASES)
    def test_quad_side_roundtrip(self, n, g):
        pairs = enumerate_quadrangulations(n, g, variant="rooted_pointed")
        emb_keys = {t.canonical_key()
                    for t in enumerate_embedded_trees(n, g)}
        signs = Counter()
        seen = Counter()
        for q, v in pairs:
            t, s = open_rooted_pointed(q, v)
            assert s in (1, -1)
            assert is_embedded(t)
            signs[s] += 1
            seen[(t.canonical_key(), s)] += 1
            back = close_rooted_pointed(t, s)
            assert (back.quad.rooted_pointed_key(back.basepoint)
                    == q.rooted_pointed_key(v))
        assert signs[1] == signs[-1] == len(pairs) // 2
        assert {k for k, _ in seen} == emb_keys
        assert set(seen.values()) == {1}

    @pytest.mark.parametrize("n,g", POINTED_CASES)
    def test_tree_side_roundtrip(self, n, g):
        for t in enumerate_embedded_trees(n, g):
            for s in (1, -1):
                pq = close_rooted_pointed(t, s)
                t2, s2 = open_rooted_pointed(pq.quad, pq.basepoint)
                assert s2 == s
                assert t2.canonical_key() == t.canonical_key()


class TestPointedClasses:
    @pytest.mark.parametrize("n,g", POINTED_CASES)
    def test_classes_match_unrooted_trees(self, n, g):
        classes = enumerate_quadrangulations(n, g, variant="pointed")
        wl = {t.unrooted_key()
              for t in enumerate_well_labeled_trees(n, g)}
        opened = set()
        for q, v in classes:
            t = open_map(PointedQuad(q, v))
            dist = distance_labels(q, q.vertices[v][0])
            assert sorted(t.labels) == sorted(x for x in dist if x > 0)
            opened.add(t.unrooted_key())
            back = close(t)
            assert (back.quad.pointed_key(back.basepoint)
                    == q.pointed_key(v))
        assert opened == wl
        assert len(opened) == len(classes)


def test_torus_two_face_tree_is_figure_eight():
    (q,) = enumerate_quadrangulations(2, 1)
    t = open_rooted(q)
    assert (t.map.n_vertices, t.map.n_edges, t.map.genus) == (1, 2, 1)
    assert t.labels == (1,)
    fig8 = RotationMap((0, 3, 4, 2, 1), (0, 2, 1, 4, 3))
    assert t.map.unrooted_key() == fig8.unrooted_key()


# A uniform tree drawn with sample_embedded_tree(12, seed=2026), written
# out so the pins below do not depend on the sampler.
PINNED_TREE = LabeledMap(
    RotationMap((0, 1, 3, 2, 5, 23, 7, 6, 9, 13, 11, 10, 12, 8, 15, 14, 17,
                 21, 19, 18, 20, 16, 22, 4, 24),
                (0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18,
                 17, 20, 19, 22, 21, 24, 23)),
    (1, 2, 2, 1, 1, 1, 1, 1, 1, 2, 3, 2, 1))


class TestPinnedDartArrays:
    """Exact dart numbering of the bijection's outputs, not only their
    isomorphism class: `surfmaps close` prints these arrays."""

    QUAD_SIGMA = (0, 25, 30, 11, 2, 9, 4, 7, 6, 5, 8, 23, 10, 21, 12, 42, 14,
                  48, 16, 15, 18, 13, 20, 3, 22, 32, 24, 40, 26, 36, 28, 39,
                  34, 35, 1, 33, 38, 31, 29, 37, 27, 45, 46, 43, 41, 44, 17,
                  47, 19)
    TREE_SIGMA = (0, 1, 21, 17, 5, 9, 7, 6, 8, 4, 11, 10, 13, 15, 23, 12, 16,
                  3, 20, 19, 22, 2, 18, 14, 24)
    TREE_LABELS = (1, 2, 1, 1, 1, 1, 1, 1, 2, 2, 2, 1, 3)

    @staticmethod
    def paired(n_darts):
        return (0,) + tuple(d + 1 if d % 2 else d - 1
                            for d in range(1, n_darts + 1))

    @pytest.mark.parametrize("sign,root", [(1, 30), (-1, 29)])
    def test_close_then_open(self, sign, root):
        pq = close_rooted_pointed(PINNED_TREE, sign)
        assert (pq.quad.sigma, pq.quad.alpha, pq.quad.root) == (
            self.QUAD_SIGMA, self.paired(48), root)
        assert pq.basepoint == 1
        t, s = open_rooted_pointed(pq.quad, pq.basepoint)
        assert (t.map.sigma, t.map.alpha, t.map.root) == (
            self.TREE_SIGMA, self.paired(24), 1)
        assert t.labels == self.TREE_LABELS
        assert s == sign

    # Genus 1, root a leaf labeled 1 and every other label 2 or 3: the one
    # label-1 corner leaves a single piece, which wraps the whole walk.
    ONE_CORNER = LabeledMap(
        RotationMap((0, 1, 5, 7, 3, 8, 4, 6, 2), (0, 8, 4, 6, 2, 7, 3, 5, 1)),
        (1, 2, 3))
    ONE_CORNER_SIGMA = (0, 4, 2, 15, 10, 7, 8, 11, 3, 6, 16, 13, 14, 5, 9,
                        12, 1)
    # Genus 1, every label 1: each piece is one corner, with nothing inside.
    ALL_ONES = LabeledMap(
        RotationMap((0, 3, 2, 6, 1, 4, 5), (0, 2, 1, 5, 6, 3, 4)), (1, 1))
    ALL_ONES_SIGMA = (0, 1, 12, 9, 2, 11, 4, 5, 6, 7, 8, 3, 10)

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("tree,sigma,root", [
        (ONE_CORNER, ONE_CORNER_SIGMA, 2), (ALL_ONES, ALL_ONES_SIGMA, 12)])
    def test_closure_edge_pieces(self, tree, sigma, root, sign):
        pq = close_rooted_pointed(tree, sign)
        # sign -1 roots at the other arc of the same edge
        want_root = root if sign == 1 else self.paired(len(sigma) - 1)[root]
        assert (pq.quad.sigma, pq.quad.alpha, pq.quad.root) == (
            sigma, self.paired(len(sigma) - 1), want_root)
        assert pq.basepoint == 1


@pytest.mark.parametrize("n", [2 ** 8, 2 ** 10, 2 ** 12])
def test_large_planar_roundtrips(n):
    t = sample_embedded_tree(n, seed=n + 1)
    key = t.canonical_key()
    for sign in (1, -1):
        pq = close_rooted_pointed(t, sign)
        back, s = open_rooted_pointed(pq.quad, pq.basepoint)
        assert s == sign
        assert back.canonical_key() == key
    q = pq.quad
    assert map_to_quad(quad_to_map(q)).canonical_key() == q.canonical_key()


@pytest.mark.parametrize("g,seed", [(1, 5), (2, 6)])
def test_large_genus_roundtrips(g, seed, large_genus_tree):
    t = large_genus_tree(g, seed)
    assert t.map.genus == g and t.map.n_faces == 1
    assert 2400 <= t.map.n_edges <= 3000
    assert graft(reduce(t)) == t
    emb = relabel_nu(t)
    pq = close_rooted_pointed(emb, 1)
    assert pq.quad.genus == g and pq.quad.n_faces == t.map.n_edges
    back, s = open_rooted_pointed(pq.quad, pq.basepoint)
    assert s == 1
    assert back.canonical_key() == emb.canonical_key()
    q = pq.quad
    assert map_to_quad(quad_to_map(q)).canonical_key() == q.canonical_key()


def test_maps_built_per_call_do_not_grow_with_size(builds):
    # each bijection step builds its chorded map and its restriction, never
    # a map per drawn or erased edge; keys are read off one walk and build
    # no map at all
    counts = {}
    for n in (64, 512):
        t = sample_embedded_tree(n, seed=n)
        pq = close_rooted_pointed(t, 1)
        q, v0 = pq.quad, pq.basepoint
        m = quad_to_map(q)
        counts[n] = {
            "close+": builds(close_rooted_pointed, t, 1),
            "close-": builds(close_rooted_pointed, t, -1),
            "close": builds(close, shift_min_1(t)),
            "open": builds(open_rooted_pointed, q, v0),
            "quad_to_map": builds(quad_to_map, q),
            "map_to_quad": builds(map_to_quad, m),
            "canonical_key": builds(q.canonical_key),
            "labeled canonical_key": builds(t.canonical_key),
            "unrooted_key": builds(q.unrooted_key),
            "pointed_key": builds(q.pointed_key, v0),
            "rooted_pointed_key": builds(q.rooted_pointed_key, v0),
        }
    assert counts[64] == counts[512] == {
        "close+": 2, "close-": 2, "close": 2, "open": 2,
        "quad_to_map": 2, "map_to_quad": 2,
        "canonical_key": 0, "labeled canonical_key": 0, "unrooted_key": 0,
        "pointed_key": 0, "rooted_pointed_key": 0}


# SHA-256 over the text of close(t) and its basepoint, and over its
# dart arrays and root, for every well-labeled tree of the desk
# censuses in enumeration order. write_map_text renumbers darts before
# printing; the second digest pins the exact dart numbering of
# closures, which `surfmaps close` prints.
DESK_CENSUSES = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (2, 1), (3, 1),
                 (4, 1)]
CLOSURE_DIGEST = ("bfc81a13c4e4f4c497077dcc095d6bbc"
                  "f62459824d59ff51a65695aade664c90")
CLOSURE_DART_DIGEST = ("cca87a64638cae3861496c29bba6457c"
                       "bff43d984137778726f3bb95ccf77479")


def test_closure_texts_are_pinned():
    h = hashlib.sha256()
    darts = hashlib.sha256()
    for n, g in DESK_CENSUSES:
        for t in enumerate_well_labeled_trees(n, g):
            pq = close(t)
            q = pq.quad
            h.update(write_map_text(q).encode())
            h.update(f"basepoint {pq.basepoint}\n".encode())
            darts.update(repr((q.sigma, q.alpha, q.root)).encode())
    assert h.hexdigest() == CLOSURE_DIGEST
    assert darts.hexdigest() == CLOSURE_DART_DIGEST


def test_each_result_is_checked_once(monkeypatch):
    # PointedQuad is the one quadrangulation check: every closure result
    # and every opening input passes it once, and a PointedQuad that was
    # already built is not checked again
    t = sample_embedded_tree(12, seed=3)
    q = close_rooted_pointed(t, 1).quad
    wl = open_rooted(q)
    pq = close(wl)
    check = bijection.check_quadrangulation
    calls = {}
    for name, f, args in (
            ("close", close, (wl,)),
            ("close_rooted", close_rooted, (wl,)),
            ("close_rooted_pointed+", close_rooted_pointed, (t, 1)),
            ("close_rooted_pointed-", close_rooted_pointed, (t, -1)),
            ("open_rooted", open_rooted, (q,)),
            ("open_rooted_pointed", open_rooted_pointed, (q, 1)),
            ("open", open_map, (pq,))):
        calls[name] = 0

        def counting(m, name=name):
            calls[name] += 1
            return check(m)

        with monkeypatch.context() as mp:
            mp.setattr(bijection, "check_quadrangulation", counting)
            f(*args)
    assert calls == {"close": 1, "close_rooted": 1,
                     "close_rooted_pointed+": 1, "close_rooted_pointed-": 1,
                     "open_rooted": 1, "open_rooted_pointed": 1, "open": 0}
