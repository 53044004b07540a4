"""Vertex labelings: variation checks, normalizations, distance labels."""

import random

import pytest

from surfmaps import (
    LabeledMap,
    RotationMap,
    StructureError,
    distance_labeling,
    distance_labels,
    edge_variation,
    has_small_variations,
    is_embedded,
    is_well_labeled,
    random_rotation_map,
    relabel_nu,
    shift_min_1,
)


def path_lm(labels=(1, 2, 1)):
    return LabeledMap(RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3)), labels)


def test_label_lookup():
    lm = path_lm()
    # dart 1 leaves the leaf vertex (1), darts 2,3 the middle (2)
    assert lm.label_of(1) == 1
    assert lm.label_of(2) == 2
    assert lm.label_of(3) == 2
    assert lm.label_of(4) == 1
    assert lm.root_label == 1


def test_edge_variation():
    lm = path_lm()
    assert edge_variation(lm, 1) == 1
    assert edge_variation(lm, 2) == -1


def test_length_mismatch_rejected():
    with pytest.raises(StructureError, match="labels"):
        path_lm(labels=(1, 2))


def test_small_variations():
    assert has_small_variations(path_lm())
    assert not has_small_variations(path_lm((1, 3, 1)))


def test_embedded_vs_well_labeled():
    lm = path_lm((1, 2, 2))
    assert is_embedded(lm)
    assert is_well_labeled(lm)
    shifted = lm.shift(3)
    assert not is_embedded(shifted)
    assert not is_well_labeled(shifted)
    # root label 1 restored by nu, min-1 by the unrooted normalization
    assert is_embedded(relabel_nu(shifted))
    assert is_well_labeled(shift_min_1(shifted))
    # well-labeled but not embedded: min is 1 away from the root
    lm2 = LabeledMap(lm.map.reroot(3), (1, 2, 2))
    assert lm2.root_label == 2
    assert is_well_labeled(lm2)
    assert not is_embedded(lm2)


def test_shift_preserves_map():
    lm = path_lm()
    assert lm.shift(5).map == lm.map
    assert lm.shift(5).labels == (6, 7, 6)
    assert lm.shift(0) == lm


def test_distance_labels_path():
    m = RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))
    assert distance_labels(m, 1) == (0, 1, 2)
    assert distance_labels(m, 2) == (1, 0, 1)


def test_distance_labeling_has_small_variations():
    rng = random.Random(31)
    for _ in range(200):
        m = random_rotation_map(rng, rng.randrange(1, 6))
        v0 = rng.randrange(1, m.n_darts + 1)
        lm = distance_labeling(m, v0)
        assert has_small_variations(lm)
        assert min(lm.labels) == 0
        assert lm.labels[m.vertex_index[v0]] == 0


def test_canonical_key_includes_labels():
    a = path_lm((1, 2, 1))
    b = path_lm((1, 2, 2))
    assert a.canonical_key() != b.canonical_key()
    assert a.canonical_key() == path_lm((1, 2, 1)).canonical_key()


def test_canonical_key_relabel_invariant():
    rng = random.Random(37)
    for _ in range(50):
        m = random_rotation_map(rng, rng.randrange(1, 5))
        labels = tuple(rng.randrange(1, 4) for _ in range(m.n_vertices))
        lm = LabeledMap(m, labels)
        darts = list(range(1, m.n_darts + 1))
        rng.shuffle(darts)
        perm = (0,) + tuple(darts)
        m2 = m.relabel(perm)
        # vertex order may change; labels must follow their vertex
        old_order = m.vertices
        new_order = m2.vertices
        moved = [None] * len(new_order)
        for i, orbit in enumerate(old_order):
            image = {perm[d] for d in orbit}
            for j, orbit2 in enumerate(new_order):
                if set(orbit2) == image:
                    moved[j] = labels[i]
        lm2 = LabeledMap(m2, tuple(moved))
        assert lm2.canonical_key() == lm.canonical_key()
