"""Census generators against hand and formula oracles."""

import hashlib
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
    iter_quadrangulations_direct,
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

    # SHA-256 over (sigma, alpha) of each map in stream order, pinned
    # from the search that walked both rotation chains at every pairing.
    # The filtered-pairings test above stops at genus 2, n = 7; these are
    # the scheme shapes the genus-2 constants and the benchmark read.
    SHAPE_DIGESTS = {
        (4, 2): "e87db95430cff5d1f79b27e23cd2e35e"
                "223fc1b595851179221ebee5ebfccaed",
        (5, 2): "123e9ce028f42af5090707ca7026b89c"
                "206fe344b5a8cdbc901df845fc625eb4",
        (6, 2): "8a0a81fa40efbfd608054be9f7066d4a"
                "0253a47e899fa3e13d4b30881397268f",
        (7, 2): "0eb86287ea5687a2437e5cb8705a8e68"
                "6ecd78920b6011047e6735a9461987f3",
        (8, 2): "c948918ec0cf97c839e4b496e29d99e6"
                "edf78e36709fc0ecf5d440641c47a7e0",
        (9, 2): "adb75440c642d3c095ebe94628a7586e"
                "0777cdefbf3c96e444191cf9a71251e2",
        (6, 3): "53593494b5007a2b150767487dd0ea75"
                "236c0334654b53d1f815dd5645ca4a4c",
    }

    @pytest.mark.parametrize("n,genus", sorted(SHAPE_DIGESTS))
    def test_shape_stream_order_pinned(self, n, genus):
        h = hashlib.sha256()
        for m in iter_one_face_maps(n, genus, 3):
            h.update(repr((m.sigma, m.alpha)).encode())
        assert h.hexdigest() == self.SHAPE_DIGESTS[n, genus]

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

    # SHA-256 over the exact arrays and labels of every listed tree, in
    # enumeration order, at the desk census sizes and at (4, 2)
    LIST_SIZES = [(1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (2, 1), (3, 1),
                  (4, 1), (4, 2)]
    LIST_DIGESTS = {
        "enumerate_embedded_trees": (
            "f081d2c545384e66636a819acf929490"
            "83b44387a8b79e16497cfe9d306cb74b"),
        "enumerate_well_labeled_trees": (
            "af497369f6ea04834de824eb800ef426"
            "4d5735bf0d36c64eec4916ef5443be93"),
    }

    @pytest.mark.parametrize("census", [enumerate_embedded_trees,
                                        enumerate_well_labeled_trees])
    def test_lists_are_pinned(self, census):
        h = hashlib.sha256()
        for n, g in self.LIST_SIZES:
            for t in census(n, g):
                h.update(repr((t.map.sigma, t.map.alpha, t.map.root,
                               t.labels)).encode())
        assert h.hexdigest() == self.LIST_DIGESTS[census.__name__]


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
                     lambda: list(iter_one_face_maps(2, 0.0)),
                     # the tree censuses are per genus: no genus None
                     lambda: enumerate_g_trees(3, None),
                     lambda: enumerate_well_labeled_trees(3, None),
                     lambda: enumerate_embedded_trees(3, None)):
            with pytest.raises(PreconditionError, match="integer"):
                call()

    def test_direct_quadrangulations_report_their_own_size(self):
        # the face count is judged as given, not as the doubled edge count
        # of the maps the filter walks
        with pytest.raises(PreconditionError,
                           match=r"quadrangulations needs .* got 2\.0"):
            list(iter_quadrangulations_direct(2.0))
