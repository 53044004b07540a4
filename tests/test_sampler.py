"""Uniform sampling of labeled trees and pointed quadrangulations."""

import itertools
from collections import Counter

import pytest

from surfmaps import (
    BudgetError,
    PreconditionError,
    check_quadrangulation,
    close_rooted_pointed,
    distance_labels,
    enumerate_quadrangulations,
    is_embedded,
    open_rooted_pointed,
    shift_min_1,
)
from surfmaps.sampler import (
    DistanceProfile,
    SampleResult,
    _tree_from_choices,
    distance_profile,
    sample_embedded_tree,
    sample_quadrangulation,
)
from surfmaps.verify import _chisquare_p, _loglog_slope


class TestTreeSampler:
    def test_shape(self):
        for n in (1, 2, 5, 12):
            t = sample_embedded_tree(n, seed=n)
            assert t.map.n_edges == n
            assert t.map.n_faces == 1
            assert t.map.genus == 0
            assert is_embedded(t)

    def test_determinism(self):
        a = [sample_embedded_tree(6, seed=42).canonical_key()
             for _ in range(5)]
        b = [sample_embedded_tree(6, seed=42).canonical_key()
             for _ in range(5)]
        assert a == b
        other = [sample_embedded_tree(6, seed=43).canonical_key()
                 for _ in range(5)]
        assert a != other

    def test_single_edge_uniform(self):
        counts = Counter(
            sample_embedded_tree(1, seed=i).canonical_key()
            for i in range(300))
        assert len(counts) == 3
        assert _chisquare_p(sorted(counts.values())) > 0.01

    def test_two_edge_chi_square(self):
        counts = Counter(
            sample_embedded_tree(2, seed=i).canonical_key()
            for i in range(1800))
        assert len(counts) == 18
        assert _chisquare_p(sorted(counts.values())) > 0.01

    def test_needs_an_edge(self):
        with pytest.raises(PreconditionError, match="edge"):
            sample_embedded_tree(0, seed=1)

    def test_genus_one_from_census(self):
        t = sample_embedded_tree(2, seed=9, genus=1)
        assert t.map.genus == 1 and t.map.n_faces == 1
        assert is_embedded(t)
        same = sample_embedded_tree(2, seed=9, genus=1)
        assert t.canonical_key() == same.canonical_key()

    def test_genus_budget(self):
        with pytest.raises(BudgetError):
            sample_embedded_tree(9, seed=1, genus=1)

    def test_genus_two_within_budget(self):
        res = sample_quadrangulation(4, seed=0, genus=2)
        q = res.quad.quad
        assert (q.genus, q.n_faces) == (2, 4)
        check_quadrangulation(q)

    def test_genus_three_budget_is_its_first_size(self):
        # the smallest genus-3 one-face map has 6 edges
        res = sample_quadrangulation(6, seed=0, genus=3)
        q = res.quad.quad
        assert (q.genus, q.n_faces) == (3, 6)
        check_quadrangulation(q)
        with pytest.raises(BudgetError):
            sample_quadrangulation(7, seed=0, genus=3)


class TestExactPushforward:
    @pytest.mark.parametrize("n,classes", [(1, 6), (2, 36), (3, 270)])
    def test_every_choice_tuple_once(self, n, classes):
        """Closing every word, step tuple and sign hits each rooted
        pointed quadrangulation exactly 2n+1 times: the sampler is
        exactly uniform, not only statistically."""
        counts = Counter()
        for ups in itertools.combinations(range(2 * n + 1), n):
            word = [1 if i in ups else -1 for i in range(2 * n + 1)]
            for steps in itertools.product((-1, 0, 1), repeat=n):
                t = _tree_from_choices(word, steps)
                for sign in (1, -1):
                    pq = close_rooted_pointed(t, sign)
                    counts[pq.quad.rooted_pointed_key(pq.basepoint)] += 1
        census = {q.rooted_pointed_key(v) for q, v in
                  enumerate_quadrangulations(n, 0, "rooted_pointed")}
        assert len(census) == classes
        assert counts == dict.fromkeys(census, 2 * n + 1)


@pytest.mark.parametrize("call,match", [
    pytest.param(lambda: sample_quadrangulation(1, seed=1, genus=1),
                 "n=1 .*genus 1", id="empty-census-g1"),
    pytest.param(lambda: sample_quadrangulation(2, seed=1, genus=3),
                 "n=2 .*genus 3", id="empty-census-g3"),
    pytest.param(lambda: sample_embedded_tree(2, seed=1, genus=-1),
                 "n=2 .*genus -1", id="negative-genus"),
    pytest.param(lambda: sample_embedded_tree(2, seed=1, genus=1.5),
                 "genus", id="float-genus"),
    pytest.param(lambda: sample_embedded_tree(2.0, seed=1),
                 "edges", id="float-edges"),
    pytest.param(lambda: sample_quadrangulation(2.0, seed=1),
                 "edges", id="float-faces"),
    pytest.param(lambda: distance_profile(4, 2.5, seed=1),
                 "samples", id="float-samples"),
])
def test_bad_sampler_input_rejected(call, match):
    with pytest.raises(PreconditionError, match=match):
        call()


class TestQuadSampler:
    def test_validity(self):
        for n in (1, 2, 4, 7):
            res = sample_quadrangulation(n, seed=n)
            assert isinstance(res, SampleResult)
            q = res.quad.quad
            check_quadrangulation(q)
            assert q.n_faces == n and q.genus == 0
            assert res.root == q.root
            assert res.sign in (1, -1)

    def test_one_face_uniform_over_six(self):
        counts = Counter()
        for i in range(600):
            pq = sample_quadrangulation(1, seed=i).quad
            counts[pq.quad.rooted_pointed_key(pq.basepoint)] += 1
        assert len(counts) == 6
        assert _chisquare_p(sorted(counts.values())) > 0.01

    def test_roundtrip_through_opening(self):
        for i in range(25):
            res = sample_quadrangulation(5, seed=i)
            opened = open_rooted_pointed(res.quad.quad, res.quad.basepoint)
            assert opened.sign == res.sign
            assert is_embedded(opened.tree)
            back = close_rooted_pointed(opened.tree, opened.sign)
            assert back.quad.canonical_key() == res.quad.quad.canonical_key()
            assert back.basepoint == res.quad.basepoint

    def test_labels_are_basepoint_distances(self):
        for i in range(15):
            res = sample_quadrangulation(6, seed=100 + i)
            q, v0 = res.quad.quad, res.quad.basepoint
            dist = distance_labels(q, res.quad.basepoint_dart)
            opened = open_rooted_pointed(q, v0)
            tree_labels = shift_min_1(opened.tree).labels
            others = [dist[v] for v in range(q.n_vertices) if v != v0]
            assert sorted(tree_labels) == sorted(others)

    def test_genus_one(self):
        res = sample_quadrangulation(3, seed=5, genus=1)
        q = res.quad.quad
        check_quadrangulation(q)
        assert q.genus == 1 and q.n_faces == 3
        opened = open_rooted_pointed(q, res.quad.basepoint)
        assert opened.sign == res.sign


class TestDistanceProfile:
    def test_determinism(self):
        assert (distance_profile(32, 16, seed=3)
                == distance_profile(32, 16, seed=3))

    def test_fields(self):
        p = distance_profile(16, 8, seed=1)
        assert isinstance(p, DistanceProfile)
        assert p.n == 16 and p.samples == 8 and p.seed == 1
        assert sum(c for _, c in p.max_label_histogram) == 8
        assert p.mean_max_label >= p.mean_label >= 1

    def test_growth(self):
        small = distance_profile(8, 48, seed=11)
        large = distance_profile(512, 48, seed=11)
        assert large.mean_max_label > small.mean_max_label

    def test_loglog_slope(self):
        sizes = [2 ** k for k in range(8, 13)]
        means = [distance_profile(n, 48, seed=2024).mean_max_label
                 for n in sizes]
        assert 0.15 < _loglog_slope(sizes, means) < 0.35

    def test_needs_samples(self):
        with pytest.raises(PreconditionError, match="sample"):
            distance_profile(4, 0, seed=1)
