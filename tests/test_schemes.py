"""Core reduction, scheme extraction, and scheme generation."""

import hashlib
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from surfmaps import (
    BudgetError,
    LabeledMap,
    PreconditionError,
    RotationMap,
    add_vertex_star,
    enumerate_embedded_trees,
)
from surfmaps.schemes import (
    DProfile,
    MotzkinWalk,
    ReducedTree,
    Scheme,
    SchemeDecomposition,
    d_profile,
    dominant_schemes,
    enumerate_schemes,
    extract_scheme,
    graft,
    iter_schemes,
    rebuild,
    reduce,
    _interval_labelings,
    _shapes,
)


@pytest.fixture
def fig8():
    return RotationMap((0, 3, 4, 2, 1), (0, 2, 1, 4, 3))


@pytest.fixture
def theta():
    return RotationMap((0, 2, 3, 1, 5, 6, 4), (0, 4, 5, 6, 1, 2, 3))


@pytest.fixture
def fig8_subdivided():
    # both loops of the figure eight cut by a degree-2 vertex
    m = RotationMap((0, 3, 4, 2, 1, 6, 5, 8, 7),
                    (0, 5, 6, 7, 8, 1, 2, 3, 4))
    assert m.n_faces == 1 and m.genus == 1
    return m


def trivial_reduced(lm):
    return ReducedTree(lm, (None,) * lm.map.n_darts, None)


def translated_key(lm):
    shift = min(lm.labels)
    return LabeledMap(lm.map,
                      tuple(x - shift for x in lm.labels)).unrooted_key()


class TestReduce:
    def test_already_reduced(self, fig8):
        t = LabeledMap(fig8, (1,))
        r = reduce(t)
        assert r.core.canonical_key() == t.canonical_key()
        assert r.attachments == (None,) * 4
        assert r.second_root is None

    def test_single_pendant(self, fig8):
        m = add_vertex_star(fig8, [1])
        t = LabeledMap(m, (1, 2))
        r = reduce(t)
        assert r.core.canonical_key() == LabeledMap(fig8, (1,)).canonical_key()
        hung = [a for a in r.attachments if a is not None]
        assert len(hung) == 1
        assert hung[0].map.n_edges == 1
        assert hung[0].root_label == 1
        assert sorted(hung[0].labels) == [1, 2]
        assert r.second_root is None
        assert graft(r).canonical_key() == t.canonical_key()

    def test_root_inside_attachment(self, fig8):
        m = add_vertex_star(fig8, [1])
        t = LabeledMap(m.reroot(6), (1, 2))
        r = reduce(t)
        # the root arc 6 becomes arc 2 of the pendant edge in corner 0
        assert r == ReducedTree(
            LabeledMap(fig8, (1,)),
            (LabeledMap(RotationMap((0, 1, 2), (0, 2, 1)), (1, 2)),
             None, None, None),
            second_root=2)
        assert graft(r).canonical_key() == t.canonical_key()

    def test_two_level_pendant(self, fig8):
        m = add_vertex_star(fig8, [1])
        m = add_vertex_star(m, [6])
        t = LabeledMap(m, (1, 2, 1))
        r = reduce(t)
        path = RotationMap((0, 1, 3, 2, 4), (0, 2, 1, 4, 3))
        assert r == ReducedTree(
            LabeledMap(fig8, (1,)),
            (LabeledMap(path, (1, 2, 1)), None, None, None),
            second_root=None)
        assert graft(r).canonical_key() == t.canonical_key()

    def test_rejects_planar(self):
        link = RotationMap((0, 1, 2), (0, 2, 1))
        with pytest.raises(PreconditionError, match="planar"):
            reduce(LabeledMap(link, (1, 1)))

    def test_rejects_several_faces(self):
        c4 = RotationMap((0, 8, 3, 2, 5, 4, 7, 6, 1),
                         (0, 2, 1, 4, 3, 6, 5, 8, 7))
        with pytest.raises(PreconditionError, match="one-face"):
            reduce(LabeledMap(c4, (1, 1, 1, 1)))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_graft_inverts_reduce_exhaustively(self, n):
        for t in enumerate_embedded_trees(n, 1):
            r = reduce(t)
            assert r.core.map.n_faces == 1
            assert r.core.map.genus == 1
            assert all(len(orb) >= 2 for orb in r.core.map.vertices)
            assert graft(r).canonical_key() == t.canonical_key()


class TestReducedTreeValidation:
    def test_attachment_count(self, fig8):
        with pytest.raises(PreconditionError, match="attachments"):
            ReducedTree(LabeledMap(fig8, (1,)), (None,) * 3)

    def test_second_root_needs_attachment(self, fig8):
        with pytest.raises(PreconditionError, match="trivial"):
            ReducedTree(LabeledMap(fig8, (1,)), (None,) * 4, 1)

    def test_core_degree_one_rejected(self, fig8):
        m = add_vertex_star(fig8, [1])
        with pytest.raises(PreconditionError, match="degree-1"):
            trivial_reduced(LabeledMap(m, (1, 2)))


class TestExtract:
    def test_subdivided_figure_eight(self, fig8, fig8_subdivided):
        core = LabeledMap(fig8_subdivided, (1, 1, 1))
        dec = extract_scheme(trivial_reduced(core))
        assert dec.scheme.shape.canonical_key() == fig8.canonical_key()
        assert dec.scheme.labels == (0,)
        assert dec.values == ()
        assert [w.steps for w in dec.walks] == [(0, 0), (0, 0)]

    def test_theta_with_two_values(self, theta):
        core = LabeledMap(theta, (1, 2))
        dec = extract_scheme(trivial_reduced(core))
        assert dec.scheme.labels in ((0, 1), (1, 0))
        assert dec.scheme.p == 1
        assert dec.values == (1,)
        assert all(len(w) == 1 and w.increment in (1, -1)
                   for w in dec.walks)

    def test_rebuild_inverts_up_to_translation(self, theta, fig8_subdivided):
        for core in (LabeledMap(fig8_subdivided, (1, 1, 1)),
                     LabeledMap(theta, (1, 2))):
            r2 = rebuild(extract_scheme(trivial_reduced(core)))
            assert translated_key(r2.core) == translated_key(core)

    def test_extract_inverts_rebuild_exactly(self, theta):
        scheme = Scheme(theta, (0, 1))
        dec = SchemeDecomposition(
            scheme,
            (MotzkinWalk((1, 0, 0)), MotzkinWalk((0, 1)), MotzkinWalk((1,))),
            (1,))
        dec2 = extract_scheme(rebuild(dec))
        assert dec2.scheme.shape.sigma == dec.scheme.shape.sigma
        assert dec2.scheme.shape.alpha == dec.scheme.shape.alpha
        assert dec2.scheme.labels == dec.scheme.labels
        assert dec2.walks == dec.walks
        assert dec2.values == dec.values

    def test_wrong_increment_rejected(self, theta):
        scheme = Scheme(theta, (0, 1))
        with pytest.raises(PreconditionError, match="walk 0"):
            SchemeDecomposition(
                scheme,
                (MotzkinWalk((0,)), MotzkinWalk((1,)), MotzkinWalk((1,))),
                (1,))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_roundtrips_on_census(self, n):
        for t in enumerate_embedded_trees(n, 1):
            r = reduce(t)
            dec = extract_scheme(r)
            r2 = rebuild(dec)
            dec2 = extract_scheme(r2)
            assert dec2.walks == dec.walks
            assert dec2.values == dec.values
            assert dec2.scheme.labels == dec.scheme.labels
            assert translated_key(r2.core) == translated_key(r.core)


def rerootings(t, step=1):
    """t rerooted at every step-th dart, labels kept."""
    return [LabeledMap(t.map.reroot(d), t.labels)
            for d in range(1, t.map.n_darts + 1, step)]


def labeled_arrays(a):
    return None if a is None else (
        a.map.sigma, a.map.alpha, a.map.root, a.labels)


def decomposition_digests(trees):
    """SHA-256 over every reduce(t), and over every extract_scheme of it,
    in order."""
    hr, hs = hashlib.sha256(), hashlib.sha256()
    for t in trees:
        r = reduce(t)
        hr.update(repr((labeled_arrays(r.core),
                        tuple(map(labeled_arrays, r.attachments)),
                        r.second_root)).encode())
        dec = extract_scheme(r)
        s = dec.scheme
        hs.update(repr((s.shape.sigma, s.shape.alpha, s.shape.root,
                        s.labels, tuple(w.steps for w in dec.walks),
                        dec.values)).encode())
    return hr.hexdigest(), hs.hexdigest()


class TestDecompositionPinned:
    """reduce and extract_scheme, bit for bit, on every rerooting of the
    small embedded censuses and every 97th rerooting of two large maps.
    The (reduce, extract_scheme) digest pairs were pinned from an
    earlier, independent implementation of both."""

    CENSUS_DIGESTS = {
        (2, 1): (
            "a6149909af0ef284e7805842d47052048fb38c71758fdf7c7d6620488ca0ffa3",
            "9aa5ab6df45946e658df4c54f06d10a2611c228c71037645d0e2f096ec6e059e"),
        (3, 1): (
            "a687fe745381ee9a7ea300a197f4108ba596ec55d04926d0bfb0d0618a181fdf",
            "a41766209059f74fb82928d8ded010521427684df2d535a1a7b627a43ef139d5"),
        (4, 1): (
            "e11de73ec238fc0fc74b14ccecaf53514c7f4b75527538e4f93324aa603c7e40",
            "ad39188973852b8b6df756c1a302a8958724976a6b12fef8212ce8e3694cc469"),
        (4, 2): (
            "8278c887fc63086ca2934b0898beb2607d359e8eaa3549703ae505e7cbdd5c71",
            "c28db5a3a0eb6a005c8ed99a38ce949f6fbb4821743277916ee982aeaa7411c1"),
    }
    LARGE_DIGESTS = {
        (1, 5): (
            "a5985feec2fad9066e539a835ae814e6f710e115b87d5008b7c93f66b6db962d",
            "d3856edceb21b65b355fe4ee3c0d12d20ee2b4e8c5c10ad2e88f4a00d64071bc"),
        (2, 6): (
            "b0181c6c089117a9dc7a7ab0553dcd191686f821efa9819daa2c38e0645e70c2",
            "7b672a8f3c51277d2c6ad7c8cdd91c62db1001b97a604ae43c10453498f011af"),
    }

    @pytest.mark.parametrize("n,g", list(CENSUS_DIGESTS))
    def test_census_rerootings(self, n, g):
        trees = [r for t in enumerate_embedded_trees(n, g)
                 for r in rerootings(t)]
        assert decomposition_digests(trees) == self.CENSUS_DIGESTS[n, g]

    @pytest.mark.parametrize("g,seed", list(LARGE_DIGESTS))
    def test_large_rerootings(self, g, seed, large_genus_tree):
        trees = rerootings(large_genus_tree(g, seed), 97)
        assert decomposition_digests(trees) == self.LARGE_DIGESTS[g, seed]


class TestSchemeType:
    def test_needs_degree_three(self, theta, fig8_subdivided):
        # a failing shape raises on every call, also after a good one passed
        for _ in range(2):
            with pytest.raises(PreconditionError, match="degree"):
                Scheme(fig8_subdivided, (0, 0, 0))
            assert Scheme(theta, (0, 1)).shape is theta

    def test_needs_interval_labels(self, theta):
        with pytest.raises(PreconditionError, match="interval"):
            Scheme(theta, (0, 2))

    def test_walk_steps_checked(self):
        for steps in ((0, 2), (1.0,), (0, None)):
            with pytest.raises(PreconditionError, match="steps"):
                MotzkinWalk(steps)

    def test_needs_integer_labels(self, theta):
        for labels in ((0.0, 1), (0, 1.0), ("a", "b"), (None, 0)):
            with pytest.raises(PreconditionError, match="integers"):
                Scheme(theta, labels)

    def test_needs_rotation_map_shape(self):
        with pytest.raises(PreconditionError, match="RotationMap"):
            Scheme("x", (0,))


class TestEnumeration:
    def test_genus_one_has_four_schemes(self):
        schemes = enumerate_schemes(1)
        assert len(schemes) == 4
        keys = {LabeledMap(s.shape, s.labels).canonical_key()
                for s in schemes}
        assert len(keys) == 4
        by_k = {}
        for s in schemes:
            by_k.setdefault(s.k, []).append(s.labels)
        assert by_k[2] == [(0,)]
        assert sorted(by_k[3]) == [(0, 0), (0, 1), (1, 0)]

    def test_genus_one_shape_census(self):
        two, three = _shapes(2, 1), _shapes(3, 1)
        assert len(two) == 1 and two[0].n_vertices == 1
        assert len(three) == 1 and three[0].n_vertices == 2

    def test_degree_identity_and_edge_range(self):
        for s in enumerate_schemes(1):
            assert 2 <= s.k <= 3
            assert sum(len(orb) - 2 for orb in s.shape.vertices) == 2

    def test_dominant_genus_one(self):
        dom = dominant_schemes(1)
        assert len(dom) == 2
        assert all(s.k == 3 and s.p == 1 for s in dom)
        assert sorted(s.labels for s in dom) == [(0, 1), (1, 0)]

    def test_genus_zero_rejected(self):
        with pytest.raises(PreconditionError, match="genus 1"):
            enumerate_schemes(0)

    def test_genus_cap(self, monkeypatch):
        with pytest.raises(BudgetError, match="SURFMAPS_MAX_SCHEME_GENUS"):
            enumerate_schemes(3)
        monkeypatch.setenv("SURFMAPS_MAX_SCHEME_GENUS", "1")
        with pytest.raises(BudgetError):
            list(iter_schemes(2))
        monkeypatch.setenv("SURFMAPS_MAX_SCHEME_GENUS", "junk")
        with pytest.raises(BudgetError, match="integer"):
            list(iter_schemes(1))


class TestDProfile:
    def test_two_loops(self, fig8):
        prof = d_profile(Scheme(fig8, (0,)))
        assert prof == (2, 0, 2, 0, (), 0)

    def test_theta_01(self, theta):
        prof = d_profile(Scheme(theta, (0, 1)))
        assert prof == (3, 1, 0, 3, (3,), 3)

    def test_theta_00(self, theta):
        prof = d_profile(Scheme(theta, (0, 0)))
        assert prof == (3, 0, 3, 0, (), 0)

    def test_levels_symmetric_under_flip(self, theta):
        prof = d_profile(Scheme(theta, (1, 0)))
        assert prof.d_levels == (3,)
        assert prof.e_ne == 3


def straddle_profile(labels, ends) -> DProfile:
    """The reference count: mark each edge's ends on a level line and
    take prefix sums, one edge at a time."""
    p = max(labels)
    marks = [0] * (p + 1)
    e_eq = 0
    for a, b in ends:
        lo, hi = labels[a], labels[b]
        if lo < hi:
            marks[lo] += 1
            marks[hi] -= 1
        elif lo > hi:
            marks[hi] += 1
            marks[lo] -= 1
        else:
            e_eq += 1
    d_levels = tuple(itertools.accumulate(marks[:p]))
    k = len(ends)
    return DProfile(k, p, e_eq, k - e_eq, d_levels, sum(d_levels))


def bare_scheme(labels, ends):
    """What d_profile reads of a scheme, for edge sets no shape has."""
    return SimpleNamespace(labels=tuple(labels),
                           shape=SimpleNamespace(edge_ends=tuple(ends)))


class TestPackedProfile:
    """d_profile sums packed bit fields; the straddle loop is the
    reference it must match."""

    def test_every_genus_one_scheme(self):
        for s in iter_schemes(1):
            assert d_profile(s) == straddle_profile(s.labels,
                                                    s.shape.edge_ends)

    def test_every_dominant_genus_two_scheme(self):
        for s in dominant_schemes(2):
            assert d_profile(s) == straddle_profile(s.labels,
                                                    s.shape.edge_ends)

    def test_full_fields(self):
        # every edge in one field: equal labels fill field 0, edges from
        # the bottom to the top label fill every level field
        for k in range(1, 41):
            for p in (0, 1, 5, 12):
                labels = tuple(range(p + 1))
                loops = [(p, p)] * k
                spans = [(0, p), (p, 0)] * (k // 2) + [(0, p)] * (k % 2)
                for ends in (loops, spans):
                    got = d_profile(bare_scheme(labels, ends))
                    assert got == straddle_profile(labels, ends), (k, p)

    def test_random_edge_sets(self):
        rng = random.Random(20071)
        for _ in range(3000):
            p = rng.randint(0, 12)
            q = rng.randint(p + 1, p + 4)
            labels = list(range(p + 1)) + [rng.randint(0, p)
                                           for _ in range(q - p - 1)]
            rng.shuffle(labels)
            k = rng.randint(1, 40)
            # few distinct labels per edge set, so fields fill up
            pool = rng.sample(range(q), rng.randint(1, q))
            ends = [(rng.choice(pool), rng.choice(pool)) for _ in range(k)]
            got = d_profile(bare_scheme(labels, ends))
            assert got == straddle_profile(labels, ends), (labels, ends)


class TestTrustedConstruction:
    """The generators build schemes without repeating the public
    constructor's checks; each must equal the checked Scheme."""

    @staticmethod
    def assert_checked_equal(s):
        checked = Scheme(s.shape, s.labels)
        assert s == checked and hash(s) == hash(checked)
        assert type(s.labels) is tuple

    def test_genus_one(self):
        for s in itertools.chain(iter_schemes(1), dominant_schemes(1)):
            self.assert_checked_equal(s)

    def test_three_shapes_per_edge_count_at_genus_two(self):
        picked = {}
        for k in range(4, 10):
            shapes = _shapes(k, 2)
            for i in (0, len(shapes) // 2, len(shapes) - 1):
                picked[id(shapes[i])] = shapes[i]
        seen = 0
        for s in iter_schemes(2):
            if id(s.shape) in picked:
                self.assert_checked_equal(s)
                seen += 1
        assert seen == sum(len(_interval_labelings(sh.n_vertices))
                           for sh in picked.values())

    def test_labelings_are_ordered_bell_many(self):
        assert [len(_interval_labelings(q)) for q in range(1, 7)] == [
            1, 3, 13, 75, 541, 4683]


class TestGenusTwo:
    def test_shape_counts_by_edges(self):
        counts = {k: len(_shapes(k, 2)) for k in range(4, 10)}
        assert counts == {4: 21, 5: 168, 6: 483, 7: 651, 8: 420, 9: 105}

    # SHA-256 over (sigma, alpha, labels) of each dominant scheme in
    # list order, pinned from the list sorted by Scheme.sort_key
    DOMINANT_DIGESTS = {
        1: "5d4f6bb4879e11e7966c50633d316f22c7edf63be7b0ea1308509ad994039235",
        2: "501d15a7e6a13d27483e040adc177db36bfab2c350adf884d6e0fcea8e1b9e47",
    }

    @pytest.mark.parametrize("g", [1, 2])
    def test_dominant_order_pinned(self, g):
        dom = dominant_schemes(g)
        assert dom == sorted(dom, key=Scheme.sort_key)
        h = hashlib.sha256()
        for s in dom:
            h.update(repr((s.shape.sigma, s.shape.alpha, s.labels)).encode())
        assert h.hexdigest() == self.DOMINANT_DIGESTS[g]

    def test_dominant_count_matches_cubic_formula(self):
        dom = dominant_schemes(2)
        assert len(dom) == math.factorial(6) * 105 == 75600
        assert all(s.k == 9 and s.p == 5 for s in dom[:100])

    def test_total_scheme_count(self):
        fubini = [1, 1, 3, 13, 75, 541, 4683]
        shapes = {4: 21, 5: 168, 6: 483, 7: 651, 8: 420, 9: 105}
        want = sum(cnt * fubini[k - 3] for k, cnt in shapes.items())
        assert want == 774564
        assert sum(1 for _ in iter_schemes(2)) == want

    def test_extract_inverts_rebuild(self):
        # random genus-2 schemes with random interval labels and values,
        # each edge subdivided along a short random Motzkin walk
        rng = random.Random(2)
        for _ in range(200):
            shape = rng.choice(_shapes(rng.randrange(4, 10), 2))
            raw = [rng.randrange(shape.n_vertices) for _ in shape.vertices]
            ranks = sorted(set(raw))
            scheme = Scheme(shape, tuple(ranks.index(x) for x in raw))
            values = tuple(itertools.accumulate(
                rng.randint(1, 3) for _ in range(scheme.p)))
            vals = (0,) + values
            vi = shape.vertex_index
            walks = []
            for d, e in shape.edges:
                inc = vals[scheme.labels[vi[e]]] - vals[scheme.labels[vi[d]]]
                up = rng.randrange(3)
                steps = ([1 if inc > 0 else -1] * abs(inc) + [1, -1] * up
                         + [0] * rng.randrange(0 if inc or up else 1, 3))
                rng.shuffle(steps)
                walks.append(MotzkinWalk(steps))
            dec = SchemeDecomposition(scheme, walks, values)
            assert extract_scheme(rebuild(dec)) == dec
