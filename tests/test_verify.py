"""Unit tests for the check runner itself.

The real checks run in test_acceptance.py; here we only exercise the
enforcement mechanics (budget overruns and verbatim failure reporting),
count the scheme builds of the constants check, pin the standard-library
statistics of the sampler check, and import the package in a fresh
interpreter to show it needs nothing outside the standard library.
Budgets are shrunk by monkeypatching so no test has to wait out a real
overrun.
"""

import math
import subprocess
import sys
from pathlib import Path

import pytest

import surfmaps
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


class TestStatistics:
    """Reference values computed with an independent chi-square
    implementation; both sides are double precision."""

    @pytest.mark.parametrize("x,dof,want", [
        (3.8414588206941285, 1, 0.05),
        (5.991464547107983, 2, 0.05),
        (11.070497693516355, 5, 0.05),
        (27.587111638275335, 17, 0.05),
        (20.515005652432876, 5, 1e-3),
        (2, 2, math.exp(-1)),
    ])
    def test_chi2_survival(self, x, dof, want):
        assert math.isclose(verify._chi2_sf(x, dof), want, rel_tol=1e-12)

    def test_chisquare_p(self):
        # statistic (1 + 0 + 1) / 10 = 0.2 on 2 dof: p = e^-0.1
        assert math.isclose(verify._chisquare_p([9, 10, 11]),
                            math.exp(-0.1), rel_tol=1e-12)
        assert verify._chisquare_p([7, 7, 7, 7]) == 1.0

    def test_loglog_slope_of_power_law(self):
        xs = [2 ** k for k in range(8, 13)]
        slope = verify._loglog_slope(xs, [3 * x ** 0.25 for x in xs])
        assert math.isclose(slope, 0.25, rel_tol=1e-12)


def test_imports_only_the_standard_library():
    """A fresh interpreter without site-packages imports every
    submodule and runs the statistics; afterwards every loaded module
    belongs to the standard library or to surfmaps."""
    code = f"""
import importlib, pkgutil, sys
sys.path.insert(0, {str(Path(surfmaps.__file__).parents[1])!r})
import surfmaps
for info in pkgutil.iter_modules(surfmaps.__path__):
    importlib.import_module("surfmaps." + info.name)
from surfmaps.verify import _chisquare_p, _loglog_slope
_chisquare_p([9, 10, 11])
_loglog_slope([1, 2, 4], [1, 3, 9])
print(sorted(name for name in sys.modules
             if name.partition(".")[0] not in sys.stdlib_module_names
             and name.partition(".")[0] not in ("surfmaps", "__main__")))
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
