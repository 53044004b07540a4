"""Quadrangulation surgery: desk examples, exhaustive roundtrips, censuses."""

import pytest

from surfmaps import (
    LabeledMap,
    PreconditionError,
    RotationMap,
    bipartition,
    check_quadrangulation,
    distance_labels,
    enumerate_quadrangulations,
    enumerate_well_labeled_trees,
    iter_quadrangulations_direct,
    iter_rooted_maps,
    map_to_quad,
    quad_to_map,
)


def link():
    return RotationMap((0, 1, 2), (0, 2, 1))


def loop():
    return RotationMap((0, 2, 1), (0, 2, 1))


def figure_eight():
    return RotationMap((0, 3, 4, 2, 1), (0, 2, 1, 4, 3))


class TestDeskExamples:
    def test_link_gives_path(self):
        q = map_to_quad(link())
        assert (q.n_vertices, q.n_edges, q.n_faces) == (3, 2, 1)
        assert q.genus == 0
        assert sorted(len(v) for v in q.vertices) == [1, 1, 2]
        # rooted at a black end of the path
        assert len(q.vertices[q.vertex_index[q.root]]) == 1

    def test_loop_gives_middle_rooted_path(self):
        q = map_to_quad(loop())
        assert (q.n_vertices, q.n_edges, q.n_faces) == (3, 2, 1)
        assert len(q.faces[0]) == 4
        # root keeps the loop's vertex, the middle of the path
        assert len(q.vertices[q.vertex_index[q.root]]) == 2
        colors = bipartition(q)
        assert sorted(colors) == [0, 1, 1]

    def test_path_quad_recovers_link(self):
        q = map_to_quad(link())
        assert quad_to_map(q).canonical_key() == link().canonical_key()

    def test_counts_follow_the_construction(self):
        for m in (link(), loop(), figure_eight()):
            q = map_to_quad(m)
            colors = bipartition(q)
            assert colors.count(0) == m.n_vertices
            assert colors.count(1) == m.n_faces
            assert q.n_edges == 2 * m.n_edges
            assert q.n_faces == m.n_edges
            assert q.genus == m.genus


class TestValidation:
    def test_rejects_big_face(self):
        claw = RotationMap((0, 2, 3, 1, 4, 5, 6), (0, 4, 5, 6, 1, 2, 3))
        with pytest.raises(PreconditionError, match="degree"):
            quad_to_map(claw)

    def test_rejects_odd_cycle(self):
        # one face of degree 4 but a loop-only vertex
        with pytest.raises(PreconditionError, match="odd cycle"):
            quad_to_map(figure_eight())

    def test_bipartition_of_quad(self):
        q = map_to_quad(figure_eight())
        colors = check_quadrangulation(q)
        assert colors.count(0) == 1
        assert colors.count(1) == 1


class TestRoundtrips:
    def test_exhaustive_small(self):
        for n in (1, 2, 3):
            for m in iter_rooted_maps(n):
                q = map_to_quad(m)
                back = quad_to_map(q)
                assert back.canonical_key() == m.canonical_key()

    def test_injective_on_four_edges(self):
        keys = [map_to_quad(m).canonical_key() for m in iter_rooted_maps(4)]
        assert len(set(keys)) == len(keys) == 706

    def test_quad_side_roundtrip(self):
        for (n, g) in ((1, 0), (2, 0), (2, 1), (3, 1)):
            for q in enumerate_quadrangulations(n, g):
                again = map_to_quad(quad_to_map(q))
                assert again.canonical_key() == q.canonical_key()

    def test_torus_two_face_quad_is_figure_eight(self):
        quads = enumerate_quadrangulations(2, 1)
        assert len(quads) == 1
        m = quad_to_map(quads[0])
        assert m.canonical_key() == figure_eight().canonical_key()


class TestCensusAgreement:
    def test_direct_filter_cross_check(self):
        for n_faces in (1, 2):
            via_maps = {q.canonical_key()
                        for q in enumerate_quadrangulations(n_faces)}
            direct = {q.canonical_key()
                      for q in iter_quadrangulations_direct(n_faces)}
            assert via_maps == direct

    def test_rooted_counts(self):
        assert len(enumerate_quadrangulations(1, 0)) == 2
        assert len(enumerate_quadrangulations(2, 0)) == 9
        assert len(enumerate_quadrangulations(3, 0)) == 54
        assert len(enumerate_quadrangulations(2, 1)) == 1
        assert len(enumerate_quadrangulations(3, 1)) == 20

    def test_vertex_face_refinement(self):
        # black/white counts of the quadrangulation remember the vertex and
        # face counts of the recovered map, class by class
        for n in (2, 3):
            maps = sorted((m.n_vertices, m.n_faces)
                          for m in iter_rooted_maps(n))
            quads = []
            for q in enumerate_quadrangulations(n):
                colors = bipartition(q)
                quads.append((colors.count(0), colors.count(1)))
            assert maps == sorted(quads)

    def test_rooted_pointed_count(self):
        pairs = enumerate_quadrangulations(1, 0, "rooted_pointed")
        assert len(pairs) == 6

    def test_pointed_classes_match_unrooted_well_labeled(self):
        # basepointed quadrangulations against unrooted well-labeled maps,
        # including the odd-distance versus odd-label refinement
        for (n, g) in ((1, 0), (2, 0), (3, 0), (2, 1), (3, 1)):
            pointed = enumerate_quadrangulations(n, g, "pointed")
            quad_stats = sorted(
                sum(1 for x in distance_labels(q, q.vertices[v][0]) if x % 2)
                for q, v in pointed)
            seen = set()
            tree_stats = []
            for t in enumerate_well_labeled_trees(n, g):
                key = t.unrooted_key()
                if key not in seen:
                    seen.add(key)
                    tree_stats.append(sum(1 for x in t.labels if x % 2))
            assert quad_stats == sorted(tree_stats)

    def test_bad_variant(self):
        with pytest.raises(PreconditionError, match="variant"):
            enumerate_quadrangulations(1, 0, "unrooted")


def test_pinned_dart_arrays_on_torus_map():
    # exact dart numbering both ways on a genus-1 map with 4 edges
    m = RotationMap((0, 7, 4, 2, 1, 8, 3, 6, 5), (0, 2, 1, 8, 6, 7, 4, 5, 3), 2)
    assert m.genus == 1
    q = map_to_quad(m)
    assert (q.sigma, q.alpha, q.root) == (
        (0, 9, 10, 15, 2, 13, 4, 3, 6, 11, 8, 7, 16, 5, 12, 1, 14),
        (0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15), 1)
    back = quad_to_map(q)
    assert (back.sigma, back.alpha, back.root) == (
        (0, 8, 3, 1, 5, 2, 7, 6, 4), (0, 2, 1, 4, 3, 6, 5, 8, 7), 2)
    assert back.canonical_key() == m.canonical_key()
