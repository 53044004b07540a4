"""The Carrell-Chapuy recurrence as an oracle for the genus series,
and the Harer-Zagier recurrence as one for the one-face map search.

The recurrences share no code with the census, scheme and series
layers, so an exact match at orders far past the census sizes checks
them.
"""

from fractions import Fraction as F
from math import comb, factorial

import pytest

from surfmaps import (
    InternalCheckError,
    PreconditionError,
    enumerate_quadrangulations,
    iter_one_face_maps,
)
from surfmaps.oracles import (
    one_face_map_counts,
    rooted_map_counts,
    scheme_shape_counts,
)
from surfmaps.schemes import _shapes
from surfmaps.series import series_Qg


class TestRecurrence:
    def test_planar_closed_form(self):
        q0 = rooted_map_counts(0, 30)[0]
        for n in range(31):
            assert q0[n] == F(2 * 3 ** n * comb(2 * n, n),
                              (n + 1) * (n + 2))

    def test_torus_census(self):
        q1 = rooted_map_counts(1, 4)[1]
        assert q1 == [0, 0, 1, 20, 307]
        for n in (2, 3, 4):
            assert len(enumerate_quadrangulations(n, 1)) == q1[n]

    def test_genus_two_census(self):
        q2 = rooted_map_counts(2, 4)[2]
        assert q2 == [0, 0, 0, 0, 21]
        assert len(enumerate_quadrangulations(4, 2)) == 21

    def test_genus_three_past_the_census(self):
        q3 = rooted_map_counts(3, 8)[3]
        assert q3[:6] == [0] * 6
        assert q3[6:] == [1485, 113256, 5008230]

    def test_lower_genera_do_not_depend_on_g_max(self):
        assert rooted_map_counts(3, 12)[:2] == rooted_map_counts(1, 12)

    @pytest.mark.parametrize("args", [(1.0, 3), (1, 3.0), (-1, 3), (1, -1)])
    def test_arguments_must_be_naturals(self, args):
        with pytest.raises(PreconditionError, match="must be an integer"):
            rooted_map_counts(*args)


class TestGenusSeries:
    @pytest.mark.parametrize("g,N", [(1, 400), (2, 100)])
    def test_series_matches_coefficient_by_coefficient(self, g, N):
        got = series_Qg(g, N).coeffs
        want = rooted_map_counts(g, N)[g]
        assert [n for n in range(N + 1) if got[n] != want[n]] == []


class TestOneFaceMaps:
    def test_one_face_census(self):
        E = one_face_map_counts(3, 6)
        for n in range(1, 7):
            for g in range(4):
                assert E[g][n] == sum(1 for _ in iter_one_face_maps(n, g))

    def test_past_the_census(self):
        E = one_face_map_counts(2, 7)
        assert (E[1][7], E[2][7]) == (12012, 66066)

    def test_planar_counts_are_catalan(self):
        e0 = one_face_map_counts(0, 30)[0]
        assert e0 == [comb(2 * n, n) // (n + 1) for n in range(31)]

    @pytest.mark.parametrize("args", [(1.0, 3), (1, 3.0), (-1, 3), (1, -1)])
    def test_arguments_must_be_naturals(self, args):
        with pytest.raises(PreconditionError, match="must be an integer"):
            one_face_map_counts(*args)

    def test_every_map_has_a_genus(self):
        # the pairings of 2n darts: (2n - 1)!! in all
        E = one_face_map_counts(5, 10)
        for n in range(11):
            assert sum(E[g][n] for g in range(6)) == (
                factorial(2 * n) // (2 ** n * factorial(n)))


class TestShapeCounts:
    @pytest.mark.parametrize("g,ks", [(1, range(2, 4)), (2, range(4, 10)),
                                      (3, range(6, 8))])
    def test_equal_the_shape_search(self, g, ks):
        solved = scheme_shape_counts(g)
        assert sorted(solved) == list(range(2 * g, 6 * g - 2))
        for k in ks:
            assert solved[k] == len(_shapes(k, g))

    @pytest.mark.parametrize("g", range(1, 6))
    def test_cubic_shapes(self, g):
        want = 2 * factorial(6 * g - 3) // (
            12 ** g * factorial(g) * factorial(3 * g - 2))
        assert scheme_shape_counts(g)[6 * g - 3] == want

    def test_genus_two_scheme_total(self):
        # a shape with q vertices carries Fubini(q) interval labelings
        fubini = [1, 1, 3, 13, 75, 541, 4683]
        solved = scheme_shape_counts(2)
        assert sum(s * fubini[k - 3] for k, s in solved.items()) == 774564

    @pytest.mark.parametrize("g", [0, -1, 1.0, "2"])
    def test_genus_must_be_positive(self, g):
        with pytest.raises(PreconditionError, match="g must be"):
            scheme_shape_counts(g)

    def test_a_wrong_count_is_caught(self, monkeypatch):
        import surfmaps.oracles as oracles
        real = oracles.one_face_map_counts

        def off_by_one(g_max, n_max):
            E = real(g_max, n_max)
            E[g_max][n_max] += 1
            return E

        monkeypatch.setattr(oracles, "one_face_map_counts", off_by_one)
        with pytest.raises(InternalCheckError, match="solves to"):
            scheme_shape_counts(2)
