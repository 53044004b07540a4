"""Text serialization roundtrips and format errors."""

import random

import pytest

from surfmaps import (
    MapFormatError,
    RotationMap,
    normalize_darts,
    parse_map_text,
    random_rotation_map,
    write_map_text,
)


def test_write_parse_roundtrip_exact():
    m = RotationMap((0, 3, 4, 2, 1), (0, 2, 1, 4, 3))
    text = write_map_text(m)
    m2, labels = parse_map_text(text)
    assert labels is None
    assert m2 == normalize_darts(m)[0]
    # a second write is bit-identical
    assert write_map_text(m2) == text


def test_write_builds_no_map(builds):
    m = random_rotation_map(random.Random(5), 40)
    labels = tuple(range(m.n_vertices))
    assert builds(write_map_text, m) == 0
    assert builds(write_map_text, m, labels) == 0


def test_roundtrip_random_maps():
    rng = random.Random(23)
    for _ in range(100):
        m = random_rotation_map(rng, rng.randrange(1, 6))
        m2, _ = parse_map_text(write_map_text(m))
        assert m2.canonical_key() == m.canonical_key()


def test_labels_roundtrip():
    m = RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))
    text = write_map_text(m, labels=(2, 1, 2))
    m2, labels = parse_map_text(text)
    assert labels == (2, 1, 2)
    assert m2.n_vertices == 3


def test_labels_follow_renumbering():
    # pairing (1 4)(2 3) forces a real dart renumbering
    m = RotationMap((0, 3, 4, 2, 1), (0, 4, 3, 2, 1))
    nm, perm = normalize_darts(m)
    assert perm != (0, 1, 2, 3, 4)
    assert nm.alpha == (0, 2, 1, 4, 3)
    text = write_map_text(m, labels=(5,))
    _, labels = parse_map_text(text)
    assert labels == (5,)


def test_comments_and_blanks_ignored():
    text = """# a one-edge map

n_darts 2
sigma 1 2
# rotation above
alpha 2 1
root 1
"""
    m, labels = parse_map_text(text)
    assert m.n_edges == 1
    assert labels is None


def test_unknown_field():
    with pytest.raises(MapFormatError, match="unknown"):
        parse_map_text("n_darts 2\nsigma 1 2\nalpha 2 1\nroot 1\nspin 3\n")


def test_missing_field():
    with pytest.raises(MapFormatError, match="alpha"):
        parse_map_text("n_darts 2\nsigma 1 2\nroot 1\n")


def test_duplicate_field():
    with pytest.raises(MapFormatError, match="duplicate"):
        parse_map_text("n_darts 2\nn_darts 2\nsigma 1 2\nalpha 2 1\nroot 1\n")


def test_non_integer():
    with pytest.raises(MapFormatError, match="integer"):
        parse_map_text("n_darts 2\nsigma 1 x\nalpha 2 1\nroot 1\n")


def test_wrong_count():
    with pytest.raises(MapFormatError, match="expected 2"):
        parse_map_text("n_darts 2\nsigma 1 2 3\nalpha 2 1\nroot 1\n")


def test_semantic_error_wrapped():
    # alpha with a fixed point is a structural, not lexical, problem
    with pytest.raises(MapFormatError, match="not a valid map"):
        parse_map_text("n_darts 2\nsigma 1 2\nalpha 1 2\nroot 1\n")


def test_label_count_mismatch():
    with pytest.raises(MapFormatError, match="labels"):
        parse_map_text(
            "n_darts 2\nsigma 1 2\nalpha 2 1\nroot 1\nlabels 1 2 3\n")


def test_normalize_darts_identity_on_normal():
    m = RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))
    nm, perm = normalize_darts(m)
    assert nm == m
    assert perm == (0, 1, 2, 3, 4)
