"""Self-verification at desk scale.

Every identity the package advertises gets an executable check here:
census counts against closed formulas, the opening/closure bijection
exhausted over small censuses, scheme-sum series against closed forms,
exact constants, structural invariants under random surgery, the
sampler's uniformity, and the genus series against an independent
recurrence.  Each check carries a wall-clock budget; a check that
exceeds its budget fails even when the mathematics held, because a
verification that cannot finish is not a verification.

Checks never fudge: they raise on the first violated property and the
runner reports the failure verbatim.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .bijection import (
    close_rooted,
    close_rooted_pointed,
    open_rooted,
    open_rooted_pointed,
)
from .census import (
    enumerate_quadrangulations,
    enumerate_well_labeled_trees,
)
from .labeling import distance_labels, is_well_labeled
from .quad import check_quadrangulation
from .rotmap import (
    RotationMap,
    add_edge_in_face,
    add_vertex_star,
    delete_edges,
    delete_vertex_star,
    face_corners,
    random_rotation_map,
)
from .errors import PreconditionError
from .sampler import distance_profile, sample_quadrangulation
from .schemes import _shapes, dominant_schemes, enumerate_schemes
from .series import (
    TruncatedSeries,
    asympt_constant,
    rhat,
    rhat_exact,
    series_Q_bullet,
    series_Qg,
    series_T,
    tau,
    u_symmetry_check,
)

__all__ = ["CheckResult", "VerificationReport", "run_verification",
           "check_names"]


class CheckFailed(Exception):
    """A verified property does not hold."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _poly(var: str, order: int, *coeffs) -> TruncatedSeries:
    cs = tuple(coeffs) + (0,) * (order + 1 - len(coeffs))
    return TruncatedSeries(var, order, cs[: order + 1])


# ---------------------------------------------------------------------------
# the checks; each returns a one-line summary or raises


def _check_planar_counts() -> str:
    # closed product form: 2 * 3^n * Catalan(n) / (n+2)
    def q0(n: int) -> Fraction:
        return Fraction(2 * 3 ** n * comb(2 * n, n), (n + 1) * (n + 2))

    for n, want in ((1, 2), (2, 9), (3, 54)):
        _require(q0(n) == want, f"closed form at n={n} is not {want}")
        got = len(enumerate_quadrangulations(n, 0))
        _require(got == want,
                 f"census found {got} planar quadrangulations with {n} "
                 f"faces, the formula gives {want}")
    qb = series_Q_bullet(0, 30)
    for n in range(31):
        c = q0(n)
        _require(c.denominator == 1, f"formula not integral at n={n}")
        _require(qb.coeff(n) == (n + 2) * c,
                 f"pointed series coefficient {n} is {qb.coeff(n)}, "
                 f"expected {(n + 2) * c}")
    return "census 2, 9, 54 and pointed series matches (n+2)-fold formula to order 30"


def _check_bijection_roundtrip() -> str:
    total = 0
    for n, g in ((1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (2, 1), (3, 1),
                 (4, 1)):
        quads = enumerate_quadrangulations(n, g)
        wl = enumerate_well_labeled_trees(n, g)
        _require(len(quads) == len(wl),
                 f"n={n} g={g}: {len(quads)} quadrangulations vs "
                 f"{len(wl)} well-labeled trees")
        tree_keys = {t.canonical_key() for t in wl}
        seen = set()
        q_odd = Counter()
        for q in quads:
            t = open_rooted(q)
            _require(is_well_labeled(t) and t.map.n_faces == 1,
                     f"n={n} g={g}: opening left the expected class")
            _require(close_rooted(t).canonical_key() == q.canonical_key(),
                     f"n={n} g={g}: close(open(q)) is not q")
            seen.add(t.canonical_key())
            dist = distance_labels(q, q.root)
            q_odd[sum(1 for x in dist if x % 2)] += 1
        _require(seen == tree_keys,
                 f"n={n} g={g}: opening is not onto the tree census")
        t_odd = Counter(sum(1 for x in t.labels if x % 2) for t in wl)
        _require(q_odd == t_odd,
                 f"n={n} g={g}: odd-distance refinement differs, "
                 f"{dict(q_odd)} vs {dict(t_odd)}")
        for t in wl:
            _require(open_rooted(close_rooted(t)).canonical_key()
                     == t.canonical_key(),
                     f"n={n} g={g}: open(close(t)) is not t")
        total += len(quads)
    return (f"both roundtrips are identities on {total} quadrangulations "
            f"across 8 censuses; odd-distance refinement exact")


def _check_torus_forms() -> str:
    schemes = enumerate_schemes(1)
    _require(len(schemes) == 4, f"{len(schemes)} torus schemes, expected 4")

    # t^2 (1+3t) / (2 (1-3t)^2 (1+t)) against the scheme sum
    N = 30
    num = _poly("t", N, 0, 0, 1, 3)
    den = (_poly("t", N, 1, -3) * _poly("t", N, 1, -3)
           * _poly("t", N, 2, 2))
    _require(rhat(1, N) == num.div(den),
             "torus chain series differs from its closed form")

    T = series_T(N)
    one = TruncatedSeries.constant("z", N, 1)
    two = TruncatedSeries.constant("z", N, 2)
    closed = ((T - one) * (T - one) * T).div(
        ((two - T) * (two - T) * (two + T)).scale(3))
    q1 = series_Qg(1, N)
    _require(q1 == closed, "torus count series differs from its closed form")

    for n, want in ((2, 1), (3, 20)):
        got = len(enumerate_quadrangulations(n, 1))
        _require(got == want,
                 f"census found {got} torus quadrangulations with {n} "
                 f"faces, expected {want}")
        _require(q1.coeff(n) == want,
                 f"series coefficient {n} is {q1.coeff(n)}, census says {want}")
    return ("4 schemes; chain and count series equal their closed forms "
            "to order 30; census agrees at n=2,3")


def _check_constants() -> str:
    t1 = tau(1)
    _require(t1 == Fraction(2, 3), f"tau(1) = {t1}, expected 2/3")
    c1 = asympt_constant(1)
    _require((c1.rational, c1.pi_power) == (Fraction(1, 24), 0),
             f"genus 1 constant is {c1}, expected 1/24")
    doms = dominant_schemes(2)
    _require(len(doms) == 75600,
             f"{len(doms)} dominant genus 2 schemes, expected 6!*105")
    shapes = {(s.shape.sigma, s.shape.alpha, s.shape.root) for s in doms}
    _require(len(shapes) == 105,
             f"{len(shapes)} dominant shapes, expected 105")
    t2 = tau(2)
    _require(t2 == Fraction(896, 9), f"tau(2) = {t2}, expected 896/9")
    c2 = asympt_constant(2)
    _require((c2.rational, c2.pi_power) == (Fraction(7, 4320), -1),
             f"genus 2 constant is {c2}, expected 7/4320 * pi^(-1/2)")
    return ("tau 2/3 and 896/9; constants 1/24 and 7/4320 * pi^(-1/2); "
            "75600 dominant schemes over 105 shapes")


def _check_u_symmetry() -> str:
    for g in (1, 2):
        _require(u_symmetry_check(rhat_exact(g)),
                 f"genus {g} chain sum is not symmetric under U -> 1/U")
    return "exact U -> 1/U invariance of the chain sum at genus 1 and 2"


def _surgery_trials(trials: int) -> tuple[int, Counter]:
    rng = random.Random(20260816)
    applied = 0
    kinds = Counter()
    m = random_rotation_map(rng, rng.randint(1, 4))
    while applied < trials:
        if m.n_edges > 9:
            m = random_rotation_map(rng, rng.randint(1, 4))
        v, e, f, g = m.n_vertices, m.n_edges, m.n_faces, m.genus
        _require(v - e + f == 2 - 2 * g, "Euler relation broken before surgery")
        op = rng.randrange(4)
        try:
            if op == 0:
                fc = face_corners(m, rng.randint(1, m.n_darts))
                out = add_edge_in_face(m, rng.choice(fc), rng.choice(fc))
                want = (v, e + 1, f + 1, g)
            elif op == 1:
                fc = list(face_corners(m, rng.randint(1, m.n_darts)))
                k = rng.randint(1, min(3, len(fc)))
                keep = sorted(rng.sample(range(len(fc)), k))
                out = add_vertex_star(m, [fc[i] for i in keep])
                want = (v + 1, e + k, f + k - 1, g)
            elif op == 2:
                out = delete_edges(m, [rng.randint(1, m.n_darts)])
                want = (v, e - 1, f - 1, g)
            else:
                d = rng.randint(1, m.n_darts)
                deg = len(m.vertices[m.vertex_index[d]])
                out = delete_vertex_star(m, d)
                want = (v - 1, e - deg, f - deg + 1, g)
        except PreconditionError:
            continue
        got = (out.n_vertices, out.n_edges, out.n_faces, out.genus)
        _require(got == want,
                 f"surgery {op} moved counts to {got}, expected {want}")
        _require(out.n_vertices - out.n_edges + out.n_faces
                 == 2 - 2 * out.genus, "Euler relation broken after surgery")
        kinds[op] += 1
        applied += 1
        m = out
    return applied, kinds


def _check_structural() -> str:
    applied, kinds = _surgery_trials(10_000)
    _require(applied == 10_000, "surgery loop ended early")
    _require(all(kinds[op] > 0 for op in range(4)),
             f"some surgery was never exercised: {dict(kinds)}")

    rng = random.Random(97)
    for _ in range(300):
        m = random_rotation_map(rng, rng.randint(1, 5))
        _require(m.dual().dual() == m, "dual is not an involution")
        tail = list(range(1, m.n_darts + 1))
        rng.shuffle(tail)
        copy = m.relabel(tuple([0] + tail))
        _require(copy.canonical_key() == m.canonical_key(),
                 "canonical key differs on a relabeled copy")
        _require(m.reroot(rng.randint(1, m.n_darts)).unrooted_key()
                 == m.unrooted_key(),
                 "unrooted key moved under rerooting")

    # imported here, so importing the package loads nothing more
    from .oracles import scheme_shape_counts

    # both laws read only the shape, so each shape is checked once
    # rather than once per labeling
    checked = 0
    for g in (1, 2):
        for k, want in scheme_shape_counts(g).items():
            shapes = _shapes(k, g)
            _require(len(shapes) == want,
                     f"{len(shapes)} genus {g} scheme shapes with {k} "
                     f"edges, the Harer-Zagier solve gives {want}")
            for shape in shapes:
                degs = [len(orb) for orb in shape.vertices]
                _require(sum(d - 2 for d in degs) == 4 * g - 2,
                         f"degree law fails for a genus {g} scheme shape")
                _require(2 * g <= shape.n_edges <= 6 * g - 3,
                         f"edge bound fails for a genus {g} scheme shape")
                checked += 1
    return (f"10000 surgeries, 300 dual/relabel/reroot probes, degree law "
            f"and Harer-Zagier count on {checked} scheme shapes")


def _chi2_sf(x: float, dof: int) -> float:
    """P(X > x) for X chi-square with integer dof >= 1: the finite sums
    of Abramowitz-Stegun 26.4.4 (odd dof) and 26.4.5 (even dof)."""
    h = x / 2
    # the summed terms are e^-h h^a / Gamma(a + 1), a = 0 or 1/2 upward
    if dof % 2:
        total, a = math.erfc(math.sqrt(h)), 0.5
        term = math.exp(-h) * math.sqrt(h) / math.gamma(1.5)
    else:
        total, a = 0.0, 0.0
        term = math.exp(-h)
    for _ in range(dof // 2):
        total += term
        a += 1
        term *= h / a
    return total


def _chisquare_p(counts) -> float:
    """p-value of Pearson's chi-square test of counts against equal
    expected counts, with len(counts) - 1 degrees of freedom."""
    k, total = len(counts), sum(counts)
    # sum (c - e)^2 / e with e = total / k, exactly
    stat = Fraction(k * sum(c * c for c in counts), total) - total
    return _chi2_sf(float(stat), k - 1)


def _loglog_slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    return statistics.linear_regression(
        [math.log(x) for x in xs], [math.log(y) for y in ys]).slope


def _check_sampler() -> str:
    rng = random.Random(4)
    counts: Counter = Counter()
    n_samples = 100_000
    for _ in range(n_samples):
        res = sample_quadrangulation(1, rng)
        q, v0 = res.quad.quad, res.quad.basepoint
        check_quadrangulation(q)
        _require(q.genus == 0 and q.n_faces == 1,
                 "sample is not a planar one-face quadrangulation")
        t, s = open_rooted_pointed(q, v0)
        _require(s == res.sign, "sample does not reopen with its sign")
        key = q.rooted_pointed_key(v0)
        back = close_rooted_pointed(t, s)
        _require(back.quad.rooted_pointed_key(back.basepoint) == key,
                 "sample does not round-trip through its tree")
        counts[key] += 1
    _require(len(counts) == 6,
             f"samples hit {len(counts)} classes, expected 6")
    p = _chisquare_p(sorted(counts.values()))
    _require(p > 1e-3, f"uniformity rejected, chi-square p = {p:.2e}")

    sizes = [2 ** k for k in range(8, 13)]
    means = [distance_profile(n, 48, seed=2024).mean_max_label
             for n in sizes]
    slope = _loglog_slope(sizes, means)
    _require(0.15 < slope < 0.35,
             f"radius growth exponent {slope:.3f} outside [0.15, 0.35]")
    return (f"{n_samples} samples uniform over 6 classes (p = {p:.3f}), "
            f"all valid and round-tripping; growth exponent {slope:.3f}")


def _check_trend() -> str:
    q1 = series_Qg(1, 400)

    def dev(n: int) -> Fraction:
        return abs(q1.coeff(n) / Fraction(12) ** n - Fraction(1, 24))

    d40, d400 = dev(40), dev(400)
    _require(d400 < d40,
             f"deviation from 1/24 grew: {float(d400):.5f} at n=400 vs "
             f"{float(d40):.5f} at n=40")
    return (f"|12^-n q(n) - 1/24| falls from {float(d40):.5f} at n=40 "
            f"to {float(d400):.5f} at n=400, exactly")


def _check_recurrence() -> str:
    # imported here, so importing the package loads nothing more
    from .oracles import rooted_map_counts

    for g, N in ((1, 400), (2, 100)):
        want = rooted_map_counts(g, N)[g]
        got = series_Qg(g, N).coeffs
        bad = [n for n in range(N + 1) if got[n] != want[n]]
        _require(not bad, f"series_Qg({g}, {N}) differs from the "
                          f"recurrence at n in {bad[:5]}")
    Q = rooted_map_counts(2, 5)
    sizes = [(n, 0) for n in range(1, 6)] + [(2, 1), (3, 1), (4, 1), (4, 2)]
    for n, g in sizes:
        got = len(enumerate_quadrangulations(n, g))
        _require(got == Q[g][n],
                 f"census found {got} genus {g} quadrangulations with {n} "
                 f"faces, the recurrence gives {Q[g][n]}")
    return ("series_Qg(1, 400) and series_Qg(2, 100) equal the "
            "Carrell-Chapuy recurrence coefficient by coefficient, "
            f"as do {len(sizes)} census sizes up to genus 2")


# ---------------------------------------------------------------------------
# the runner

_CHECKS = (
    ("planar-counts", _check_planar_counts, 60.0),
    ("bijection-roundtrip", _check_bijection_roundtrip, 300.0),
    ("torus-closed-forms", _check_torus_forms, 60.0),
    ("asymptotic-constants", _check_constants, 600.0),
    ("u-symmetry", _check_u_symmetry, 60.0),
    ("structural-invariants", _check_structural, 300.0),
    ("sampler-uniformity", _check_sampler, 300.0),
    ("asymptotic-trend", _check_trend, 120.0),
    ("map-recurrence", _check_recurrence, 60.0),
)

LEVELS = {
    "smoke": ("planar-counts", "torus-closed-forms", "u-symmetry"),
    "desk": tuple(name for name, _, _ in _CHECKS),
}


def check_names(level: str = "desk") -> tuple:
    if level not in LEVELS:
        raise PreconditionError(
            f"unknown level {level!r}; use one of {sorted(LEVELS)}")
    return LEVELS[level]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float
    budget: float
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    level: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _run_one(name: str) -> CheckResult:
    func, budget = next((f, b) for nm, f, b in _CHECKS if nm == name)
    start = time.perf_counter()
    try:
        detail = func()
        ok = True
    except Exception as exc:  # any escape is a failure, reported verbatim
        detail = f"{type(exc).__name__}: {exc}"
        ok = False
    seconds = time.perf_counter() - start
    if ok and seconds > budget:
        ok = False
        detail += f"; exceeded the {budget:.0f}s budget"
    return CheckResult(name, ok, seconds, budget, detail)


def run_verification(level: str = "desk") -> VerificationReport:
    """Run the named level's checks one after another, in the declared
    order, each against its budget at face value."""
    return VerificationReport(
        level, tuple(_run_one(nm) for nm in check_names(level)))
