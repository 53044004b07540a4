"""Unit tests for the check runner itself.

The real checks run in test_acceptance.py; here we only exercise the
enforcement mechanics (budget overruns and verbatim failure reporting)
and count the scheme builds of the constants check.
Budgets are shrunk by monkeypatching so no test has to wait out a real
overrun.
"""

import pytest

import surfmaps.series
import surfmaps.verify as verify
from surfmaps import PreconditionError, check_names


def _with_budget(name, budget):
    return [(nm, fn, budget if nm == name else b)
            for nm, fn, b in verify._CHECKS]


class TestRunner:
    def test_budget_overrun_fails(self, monkeypatch):
        monkeypatch.setattr(
            verify, "_CHECKS", _with_budget("planar-counts", 1e-9))
        res = verify._run_one("planar-counts")
        assert not res.passed
        assert "exceeded the 0s budget" in res.detail
        # the mathematical detail is kept in front of the verdict
        assert res.detail.startswith("census")

    def test_exception_reported_verbatim(self, monkeypatch):
        def boom():
            raise ValueError("boom")

        rows = [(nm, boom if nm == "planar-counts" else fn, b)
                for nm, fn, b in verify._CHECKS]
        monkeypatch.setattr(verify, "_CHECKS", rows)
        res = verify._run_one("planar-counts")
        assert not res.passed
        assert res.detail == "ValueError: boom"

    def test_result_records_stated_budget(self, monkeypatch):
        monkeypatch.setattr(
            verify, "_CHECKS", _with_budget("planar-counts", 1e-9))
        res = verify._run_one("planar-counts")
        assert res.budget == 1e-9


class TestLevels:
    def test_unknown_level_rejected(self):
        with pytest.raises(PreconditionError):
            check_names("exhaustive")

    def test_smoke_is_a_desk_subset(self):
        assert set(check_names("smoke")) < set(check_names("desk"))


class TestChecks:
    def test_constants_build_each_scheme_list_once(self, monkeypatch):
        """tau(1), asympt_constant(1), the genus-2 listing, tau(2) and
        asympt_constant(2) each build the dominant schemes once; an
        error message that called tau again would add builds."""
        built = []
        dominant = surfmaps.series.dominant_schemes

        def counted(g):
            built.append(g)
            return dominant(g)

        monkeypatch.setattr(surfmaps.series, "dominant_schemes", counted)
        monkeypatch.setattr(verify, "dominant_schemes", counted)
        verify._check_constants()
        assert sorted(built) == [1, 1, 2, 2, 2]
