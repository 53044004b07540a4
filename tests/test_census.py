"""Census generators against hand and formula oracles."""

from functools import lru_cache

import pytest

from surfmaps import (
    BudgetError,
    PreconditionError,
    enumerate_embedded_trees,
    enumerate_g_trees,
    enumerate_quadrangulations,
    enumerate_rooted_maps,
    enumerate_well_labeled_trees,
    iter_one_face_maps,
    iter_rooted_maps,
)
from surfmaps.census import _max_n

# frozen counts: rooted maps with n edges, all genera, then planar only
ALL_GENUS_COUNTS = {1: 2, 2: 10, 3: 74, 4: 706}
PLANAR_COUNTS = {1: 2, 2: 9, 3: 54, 4: 378}
TORUS_COUNTS = {2: 1, 3: 20, 4: 307}


class TestRootedMaps:
    def test_total_counts(self):
        for n, want in ALL_GENUS_COUNTS.items():
            assert sum(1 for _ in iter_rooted_maps(n)) == want

    def test_planar_counts(self):
        for n, want in PLANAR_COUNTS.items():
            assert len(enumerate_rooted_maps(n, 0)) == want

    def test_torus_counts(self):
        for n, want in TORUS_COUNTS.items():
            assert len(enumerate_rooted_maps(n, 1)) == want

    def test_double_torus_counts(self):
        # genus 2 needs at least 4 edges; the 4-edge ones are exactly the
        # one-vertex one-face maps
        assert sum(1 for _ in iter_rooted_maps(3, genus=2)) == 0
        assert sum(1 for _ in iter_rooted_maps(4, genus=2)) == 21

    def test_generated_maps_are_canonical_and_distinct(self):
        maps = enumerate_rooted_maps(3)
        keys = {m.canonical_key() for m in maps}
        assert len(keys) == len(maps)
        for m in maps:
            assert m.canonical() == m
            assert m.root == 1


class TestOneFaceMaps:
    def test_total_is_double_factorial(self):
        # (2n-1)!! pairings of the face walk
        for n, want in ((1, 1), (2, 3), (3, 15), (4, 105)):
            assert sum(1 for _ in iter_one_face_maps(n)) == want

    def test_genus_split_at_four_edges(self):
        split = {g: len(list(iter_one_face_maps(4, genus=g)))
                 for g in (0, 1, 2)}
        assert split == {0: 14, 1: 70, 2: 21}

    def test_plane_trees_are_catalan(self):
        for n, want in ((1, 1), (2, 2), (3, 5), (4, 14)):
            assert len(enumerate_g_trees(n, 0)) == want

    def test_one_face_filter_agrees_with_slot_generator(self):
        for n in (1, 2, 3):
            direct = {m.canonical_key() for m in iter_one_face_maps(n)}
            filtered = {m.canonical_key() for m in iter_rooted_maps(n)
                        if m.n_faces == 1}
            assert direct == filtered

    def test_min_degree_pruning(self):
        # genus-1 shapes: every vertex degree at least 3
        shapes2 = list(iter_one_face_maps(2, genus=1, min_degree=3))
        assert len(shapes2) == 1
        assert shapes2[0].n_vertices == 1
        shapes3 = list(iter_one_face_maps(3, genus=1, min_degree=3))
        assert len(shapes3) == 1
        assert sorted(len(v) for v in shapes3[0].vertices) == [3, 3]
        full = [m for m in iter_one_face_maps(3, genus=1)
                if min(len(v) for v in m.vertices) >= 3]
        assert len(full) == 1

    def test_each_exactly_once(self):
        maps = list(iter_one_face_maps(3))
        assert len({m.canonical_key() for m in maps}) == len(maps)

    @pytest.mark.parametrize("genus,n", [(1, n) for n in range(1, 6)]
                             + [(2, n) for n in range(4, 8)])
    def test_pruned_stream_is_filtered_pairings(self, genus, n):
        # the prunes cut dead branches only: same maps, same order
        for min_degree in (1, 2, 3):
            want = [(sigma, alpha) for sigma, alpha, degrees in _pairings(n)
                    if len(degrees) == n + 1 - 2 * genus
                    and min(degrees) >= min_degree]
            got = [(m.sigma, m.alpha)
                   for m in iter_one_face_maps(n, genus, min_degree)]
            assert got == want

    @pytest.mark.parametrize("min_degree", [0, -1, 1.5, "3"])
    def test_min_degree_must_be_positive(self, min_degree):
        with pytest.raises(PreconditionError, match="min_degree"):
            list(iter_one_face_maps(3, 1, min_degree))
        with pytest.raises(PreconditionError, match="min_degree"):
            list(iter_one_face_maps(3, min_degree=min_degree))


@lru_cache(maxsize=None)
def _pairings(n_edges):
    """The unpruned one-face search: every edge pairing of the face walk
    1..2n in the order the search visits them (the least unpaired dart
    takes each free partner in turn), as (sigma, alpha, vertex degrees)
    with sigma(d) = alpha(d) + 1 cyclically."""
    n_darts = 2 * n_edges
    alf = [0] * (n_darts + 1)
    out = []

    def rec():
        d = next((x for x in range(1, n_darts + 1) if not alf[x]), None)
        if d is None:
            sigma = (0,) + tuple(a % n_darts + 1 for a in alf[1:])
            seen = [False] * (n_darts + 1)
            degrees = []
            for x in range(1, n_darts + 1):
                size = 0
                while not seen[x]:
                    seen[x] = True
                    size += 1
                    x = sigma[x]
                if size:
                    degrees.append(size)
            out.append((sigma, tuple(alf), tuple(degrees)))
            return
        for e in range(d + 1, n_darts + 1):
            if not alf[e]:
                alf[d], alf[e] = e, d
                rec()
                alf[d] = alf[e] = 0

    rec()
    return tuple(out)


class TestLabeledTrees:
    def test_embedded_counts(self):
        assert len(enumerate_embedded_trees(1, 0)) == 3
        assert len(enumerate_embedded_trees(2, 0)) == 18

    def test_well_labeled_hand_list(self):
        trees = enumerate_well_labeled_trees(1, 0)
        assert sorted(t.labels for t in trees) == [(1, 1), (1, 2)]

    def test_well_labeled_counts_match_quadrangulation_numbers(self):
        # the closure sends these bijectively onto rooted quadrangulations,
        # so the counts must be 2, 9, 54, ... and 1, 20, 307, ...
        for n, want in ((1, 2), (2, 9), (3, 54)):
            assert len(enumerate_well_labeled_trees(n, 0)) == want
        for n, want in ((2, 1), (3, 20), (4, 307)):
            assert len(enumerate_well_labeled_trees(n, 1)) == want

    def test_embedded_counts_match_half_rooted_pointed(self):
        # (embedded tree, sign) pairs account for rooted pointed
        # quadrangulations, which number (n+2-2g) per rooted one
        for n, want in ((2, 1), (3, 30), (4, 614)):
            assert len(enumerate_embedded_trees(n, 1)) == want

    def test_torus_well_labeled_two_edges(self):
        trees = enumerate_well_labeled_trees(2, 1)
        assert len(trees) == 1
        assert trees[0].labels == (1,)

    def test_labelings_are_valid_and_distinct(self):
        from surfmaps import is_embedded, is_well_labeled
        wl = enumerate_well_labeled_trees(3, 1)
        emb = enumerate_embedded_trees(3, 1)
        assert all(is_well_labeled(t) and t.root_label == 1 for t in wl)
        assert all(is_embedded(t) for t in emb)
        assert len({t.canonical_key() for t in wl}) == len(wl)
        assert len({t.canonical_key() for t in emb}) == len(emb)


class TestBudgets:
    def test_over_budget(self):
        with pytest.raises(BudgetError, match="SURFMAPS_MAX_N"):
            enumerate_rooted_maps(6, 0)
        with pytest.raises(BudgetError):
            enumerate_g_trees(5, 1)
        with pytest.raises(BudgetError):
            enumerate_well_labeled_trees(5, 2)

    def test_genus_two_budget_reaches_its_first_size(self):
        # the smallest genus-2 map has 4 edges; every census at that size
        # holds 21 objects, the t^4 coefficient of Q_2 pinned in
        # test_series (computing it here would build rhat_exact(2))
        for census in (enumerate_rooted_maps, enumerate_g_trees,
                       enumerate_well_labeled_trees,
                       enumerate_quadrangulations):
            assert len(census(4, 2)) == 21, census.__name__

    def test_all_genera_budget(self):
        assert _max_n(None) == 5
        with pytest.raises(BudgetError):
            enumerate_rooted_maps(6)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("SURFMAPS_MAX_N", "2")
        with pytest.raises(BudgetError):
            enumerate_rooted_maps(3, 0)
        monkeypatch.setenv("SURFMAPS_MAX_N", "3")
        assert len(enumerate_rooted_maps(3, 0)) == 54
        monkeypatch.setenv("SURFMAPS_MAX_N", "junk")
        with pytest.raises(BudgetError, match="integer"):
            enumerate_rooted_maps(2, 0)

    def test_bad_n(self):
        with pytest.raises(PreconditionError):
            enumerate_rooted_maps(0, 0)
        # n must be an int >= 1 and genus None or an int >= 0
        for call in (lambda: enumerate_quadrangulations(2.0),
                     lambda: list(iter_rooted_maps(2.0)),
                     lambda: list(iter_one_face_maps(2.0)),
                     lambda: enumerate_rooted_maps(3, genus="x"),
                     lambda: enumerate_rooted_maps(3, genus=1.0),
                     lambda: enumerate_g_trees(3, -1),
                     lambda: list(iter_rooted_maps(2, "x")),
                     lambda: list(iter_one_face_maps(2, 0.0))):
            with pytest.raises(PreconditionError, match="integer"):
                call()
