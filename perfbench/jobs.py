"""One cold benchmark job in a fresh interpreter.

    python3 perfbench/jobs.py '<json spec>'

The spec names the job, its parameters, whether to trace, and the
parent's clock reading just before it started this process. The job
imports surfmaps, runs its timed work, checks every output against the
oracles, and prints one JSON line: setup and work seconds, peak RSS,
checks attempted and failed, the job's end-to-end values and, when
traced, its spans. Oracles are computed outside the timed region.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402

import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402


class Checks:
    """Every output check is one operation; a false one is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)


class Pace:
    """How fast this interpreter runs right now. While a job runs, a
    thread times a fixed ~1 ms snippet every 50 ms; run.py divides job
    times by the median snippet time, because this machine's speed
    swings by tens of percent within seconds."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def snippet() -> None:
        """Tuples, dict lookups and big-integer arithmetic, the mix the
        library's hot paths are made of."""
        d: dict = {}
        for i in range(2500):
            t = (i & 255, i >> 2)
            d[t] = d.get(t, 0) + i
        x = 3 ** 400
        for i in range(1, 400):
            x = (x * (2 * i + 1)) // i

    def sample(self) -> None:
        t0 = perf_counter()
        self.snippet()
        self.samples.append(perf_counter() - t0)

    def _run(self) -> None:
        while not self._stop.wait(0.05):
            self.sample()

    def __enter__(self):
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.sample()


def clear_caches() -> None:
    """Empty every lru_cache in surfmaps, so a repeated call is cold."""
    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "surfmaps":
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


def rooted_pointed_key(S, q, v: int) -> tuple:
    """Rooted isomorphism class of (q, marked vertex v)."""
    marks = tuple(int(i == v) for i in range(q.n_vertices))
    return S.LabeledMap(q, marks).canonical_key()


def laurent(p) -> dict:
    return {p.offset + i: c for i, c in enumerate(p.coeffs)}


# -- jobs: each returns (work seconds, end-to-end values) ------------------


def job_bij(S, spec, chk: Checks, tr: Tracer):
    """Close uniform trees, reopen them, and send every quadrangulation
    through quad_to_map/map_to_quad and the text format."""
    rng = random.Random(spec["seed"])
    close_s = open_s = quad_s = 0.0
    faces = 0
    quads = []
    t0 = perf_counter()
    for n, count in zip(spec["sizes"], spec["trees"]):
        for _ in range(count):
            with tr.span("sampler.tree", n):
                t = S.sample_embedded_tree(n, rng)
            sign = rng.choice((1, -1))
            with tr.span("bijection.close", n) as sp:
                pq = S.close_rooted_pointed(t, sign)
            close_s += sp.dt
            q = pq.quad
            with tr.span("bijection.open", n) as sp:
                back, back_sign = S.open_rooted_pointed(q, pq.basepoint)
            open_s += sp.dt
            chk.expect(back.canonical_key() == t.canonical_key()
                       and back_sign == sign,
                       f"n={n}: open(close(t)) is not t")
            with tr.span("quad.quad_to_map", n) as sp:
                m = S.quad_to_map(q)
            quad_s += sp.dt
            with tr.span("quad.map_to_quad", n) as sp:
                q2 = S.map_to_quad(m)
            quad_s += sp.dt
            key = q.canonical_key()
            chk.expect(m.n_edges == n and m.genus == 0
                       and q2.canonical_key() == key,
                       f"n={n}: map_to_quad(quad_to_map(q)) is not q")
            with tr.span("mapio.write", q.n_darts):
                text = S.write_map_text(q)
            with tr.span("mapio.parse", q.n_darts):
                q3, labels = S.parse_map_text(text)
            chk.expect(labels is None and q3.canonical_key() == key,
                       f"n={n}: parse(write(q)) is not q")
            faces += n
            quads.append(q)
    work = perf_counter() - t0
    if tr.record:
        for q in quads:
            with tr.span("rotmap.construct", q.n_darts):
                S.RotationMap(q.sigma, q.alpha, q.root).faces
            with tr.span("labeling.distance_labels", q.n_darts):
                S.distance_labels(q, q.root)
    return work, {"close_faces_per_s": faces / close_s,
                  "open_faces_per_s": faces / open_s,
                  "quad_faces_per_s": faces / quad_s}


def job_census(S, spec, chk: Checks, tr: Tracer):
    """Both round trips on every element of the censuses, and opening
    onto the tree census."""
    want = {(n, g): oracles.CENSUS[g][n] for n, g in spec["censuses"]}
    for (n, g), count in want.items():
        if g == 0:
            chk.expect(count == oracles.planar_count(n),
                       f"planar census literal at n={n}")
    torus = oracles.rooted_map_counts(1, 5)[1]
    for (n, g), count in want.items():
        if g == 1:
            chk.expect(count == torus[n], f"torus census literal at n={n}")

    def key(x):
        with tr.span("rotmap.canonical_key", x.n_darts):
            return x.canonical_key()

    t0 = perf_counter()
    for (n, g), count in want.items():
        with tr.span("census.quads") as sp:
            quads = S.enumerate_quadrangulations(n, g)
        tr.set_size(sp, len(quads))
        with tr.span("census.wl") as sp:
            trees = S.enumerate_well_labeled_trees(n, g)
        tr.set_size(sp, len(trees))
        chk.expect(len(quads) == count, f"n={n} g={g}: {len(quads)} quads")
        chk.expect(len(trees) == count, f"n={n} g={g}: {len(trees)} trees")
        seen = set()
        for q in quads:
            with tr.span("bijection.open_rooted", q.n_darts):
                t = S.open_rooted(q)
            with tr.span("bijection.close_rooted", q.n_darts):
                back = S.close_rooted(t)
            chk.expect(key(back) == key(q), f"n={n} g={g}: close(open(q)) != q")
            seen.add(t.canonical_key())
        chk.expect(seen == {t.canonical_key() for t in trees},
                   f"n={n} g={g}: opening is not onto the tree census")
        for t in trees:
            with tr.span("bijection.close_rooted", t.map.n_darts):
                q = S.close_rooted(t)
            with tr.span("bijection.open_rooted", q.n_darts):
                back = S.open_rooted(q)
            chk.expect(back.canonical_key() == t.canonical_key(),
                       f"n={n} g={g}: open(close(t)) != t")
    return perf_counter() - t0, {}


def job_sample(S, spec, chk: Checks, tr: Tracer):
    """Draw, reopen and reclose tiny quadrangulations; every draw's
    rooted pointed class must be one of the (n+2) Q0(n) classes."""
    rng = random.Random(spec["seed"])
    drawn: dict[int, list] = {}
    draws = 0
    t0 = perf_counter()
    for n in spec["ns"]:
        keys = drawn[n] = []
        for _ in range(spec["draws"]):
            with tr.span("sampler.sample", n):
                res = S.sample_quadrangulation(n, rng)
            q, v0 = res.quad.quad, res.quad.basepoint
            t, sign = S.open_rooted_pointed(q, v0)
            again = S.close_rooted_pointed(t, sign)
            k = rooted_pointed_key(S, q, v0)
            chk.expect(sign == res.sign and rooted_pointed_key(
                S, again.quad, again.basepoint) == k,
                f"n={n}: sample does not round-trip through its tree")
            keys.append(k)
            draws += 1
    seconds = perf_counter() - t0
    for n, keys in drawn.items():
        classes = {rooted_pointed_key(S, q, v) for q, v in
                   S.enumerate_quadrangulations(n, 0, "rooted_pointed")}
        chk.expect(len(classes) == (n + 2) * oracles.planar_count(n),
                   f"n={n}: {len(classes)} rooted pointed classes")
        for k in keys:
            chk.expect(k in classes, f"n={n}: sample outside the census")
    return seconds, {"sample_per_s": draws / seconds}


def job_constants(S, spec, chk: Checks, tr: Tracer):
    """asympt_constant(g) with empty caches, spec["calls"] times; the
    genus-1 call takes well under a millisecond, so probes repeat it."""
    g = spec["genus"]
    if tr.record:
        series = sys.modules["surfmaps.series"]
        tr.wrap(series, "tau", "series.tau")
        tr.wrap(series, "dominant_schemes", "schemes.dominant", size=len)
        tr.wrap(series, "d_profile", "schemes.d_profile")
        tr.wrap(sys.modules["surfmaps.census"], "iter_one_face_maps",
                "census.shapes", generator=True)
    calls = []
    for _ in range(spec["calls"]):
        clear_caches()
        t0 = perf_counter()
        with tr.span("series.asympt_constant"):
            c = S.asympt_constant(g)
        chk.expect((c.rational, c.pi_power) == oracles.CONSTANT[g],
                   f"c({g}) = {c}")
        calls.append(perf_counter() - t0)
        chk.expect(oracles.tau_from_constant(g, c.rational) == oracles.TAU[g],
                   f"tau({g}) implied by c({g}) is wrong")
    return sum(calls), {"call_s": statistics.median(calls)}


def job_series(S, spec, chk: Checks, tr: Tracer):
    """rhat_exact(g), its U -> 1/U symmetry, and series_Qg(g, N) against
    the Carrell-Chapuy recurrence."""
    g, N = spec["genus"], spec["order"]
    want = oracles.rooted_map_counts(g, N)[g]
    profiles = set()
    if tr.record:
        series = sys.modules["surfmaps.series"]
        tr.wrap(series, "iter_schemes", "schemes.iter", generator=True)
        tr.wrap(series, "d_profile", "schemes.d_profile",
                observe=profiles.add)
        tr.wrap(series, "rhat_exact", "series.rhat_exact")
        tr.wrap(series, "u_symmetry_check", "series.u_symmetry")
        tr.wrap(series, "series_Qg", "series.Qg")
        tr.wrap(sys.modules["surfmaps.census"], "iter_one_face_maps",
                "census.shapes", generator=True)
    t0 = perf_counter()
    r = S.rhat_exact(g)
    chk.expect(S.u_symmetry_check(r) is True,
               f"rhat_exact({g}) is not U -> 1/U symmetric")
    qs = S.series_Qg(g, N)
    chk.expect(list(qs.coeffs) == want,
               f"series_Qg({g}, {N}) differs from the recurrence")
    seconds = perf_counter() - t0
    chk.expect(oracles.is_u_symmetric(laurent(r.num), laurent(r.den)),
               f"rhat_exact({g}) fails the independent symmetry check")
    if tr.record:
        chk.expect(len(profiles) == oracles.PROFILE_COUNTS[g],
                   f"{len(profiles)} distinct d-profiles at genus {g}")
    return seconds, {"call_s": seconds, "profiles": len(profiles)}


def job_series_hi(S, spec, chk: Checks, tr: Tracer):
    """series_Qg(g, N) at high order against the recurrence."""
    g, N = spec["genus"], spec["order"]
    want = oracles.rooted_map_counts(g, N)[g]
    t0 = perf_counter()
    with tr.span("series.Qg_hi"):
        qs = S.series_Qg(g, N)
    chk.expect(list(qs.coeffs) == want,
               f"series_Qg({g}, {N}) differs from the recurrence")
    seconds = perf_counter() - t0
    if tr.record:
        with tr.span("series.U"):
            S.series_U(N)
    return seconds, {"call_s": seconds}


JOBS = {
    "bij": job_bij,
    "census": job_census,
    "sample": job_sample,
    "constants": job_constants,
    "series": job_series,
    "series_hi": job_series_hi,
}


def run_job(spec: dict) -> dict:
    """Import surfmaps, run the job, and report what it measured."""
    t_import = perf_counter()
    import surfmaps as S
    t_ready = perf_counter()
    tr = Tracer(record=spec["trace"])
    chk = Checks()
    try:
        with Pace() as pace:
            work, values = JOBS[spec["job"]](S, spec, chk, tr)
    finally:
        tr.unwrap()
    out = {
        "job": spec["job"],
        "setup_s": (T_START - spec.get("spawned", T_START)) + (t_ready - t_import),
        "work_s": work,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "failures": chk.failures,
        "values": values,
        "pace_s": statistics.median(pace.samples),
    }
    if spec["trace"]:
        out["spans"] = tr.export()
    return out


if __name__ == "__main__":
    print(json.dumps(run_job(json.loads(sys.argv[1]))))
