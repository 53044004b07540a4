"""Uniform sampling of labeled trees and pointed quadrangulations."""

import math
from collections import Counter

import pytest
from scipy import stats

from surfmaps import (
    BudgetError,
    PreconditionError,
    check_quadrangulation,
    close_rooted_pointed,
    distance_labels,
    is_embedded,
    open_rooted_pointed,
    shift_min_1,
)
from surfmaps.sampler import (
    DistanceProfile,
    SampleResult,
    distance_profile,
    sample_embedded_tree,
    sample_quadrangulation,
)


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
        _, p = stats.chisquare(sorted(counts.values()))
        assert p > 0.01

    def test_two_edge_chi_square(self):
        counts = Counter(
            sample_embedded_tree(2, seed=i).canonical_key()
            for i in range(1800))
        assert len(counts) == 18
        _, p = stats.chisquare(sorted(counts.values()))
        assert p > 0.01

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
        _, p = stats.chisquare(sorted(counts.values()))
        assert p > 0.01

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
        import numpy as np

        sizes = [2 ** k for k in range(8, 13)]
        means = [distance_profile(n, 48, seed=2024).mean_max_label
                 for n in sizes]
        slope = np.polyfit(np.log(sizes), np.log(means), 1)[0]
        assert 0.15 < slope < 0.35

    def test_needs_samples(self):
        with pytest.raises(PreconditionError, match="sample"):
            distance_profile(4, 0, seed=1)
