"""The Carrell-Chapuy recurrence as an oracle for the genus series.

The recurrence shares no code with the scheme and series layers, so
an exact match at orders far past the census sizes checks both.
"""

from fractions import Fraction as F
from math import comb

import pytest

from surfmaps import PreconditionError, enumerate_quadrangulations
from surfmaps.oracles import rooted_map_counts
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
