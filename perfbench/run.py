"""surfmaps benchmark: one closed-loop client, one cold job at a time.

    python3 perfbench/run.py --workload bij-large --seed 1 --seconds 10 --trace 0

Every job runs in a fresh interpreter, one after another, so the
lru_caches in census, schemes and series start empty, as they do for
every surfmaps CLI call. A workload runs all six jobs: its own at full
size, the others as light probes, so every end-to-end metric is
measured on every workload. Rounds repeat until --seconds have passed.

The machines this was built on swing in speed by tens of percent
within seconds. So each job's times are rescaled to a reference pace
(see jobs.Pace: the median time of a fixed snippet timed every 50 ms
while the job runs, against PACE_REF), each job runs a fixed number of
times spread over the run, and a job's metric is its best run. The raw
times and paces are kept in perfbench/out/result-*.json. setup_s and
peak_rss_mb are not rescaled.

--trace 0 prints the end-to-end metrics. --trace 1 runs every job once
untraced and once traced, prints the per-layer metrics and the tracing
overhead, and writes every span to perfbench/out/ at the end. Every
output is checked exactly; a failed check is a failed operation and
makes the run incorrect (exit status 1). The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles
from tracer import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 175.0
# seconds the pace snippet takes at the reference speed: job times are
# reported as if the machine ran at that speed
PACE_REF = 1.0e-3

# sizes of the closure/opening ladder; per-layer metrics are named by them
LADDER = [64, 128, 256, 512]
ALL_CENSUSES = [[1, 0], [2, 0], [3, 0], [4, 0], [5, 0], [2, 1], [3, 1], [4, 1]]

# job -> (parameters, runs); the light probes give every workload the
# end-to-end metrics of the others
PROBES = {
    "bij": ({"sizes": [64, 128], "trees": [4, 2]}, 3),
    "census": ({"censuses": [[1, 0], [2, 0], [3, 0], [4, 0], [2, 1], [3, 1]]}, 3),
    "sample": ({"ns": [1, 2, 3], "draws": 200}, 3),
    "constants": ({"genus": 1, "calls": 500}, 3),
    "series": ({"genus": 1, "order": 120}, 3),
    "series_hi": ({"genus": 1, "order": 150}, 3),
}

WORKLOADS = {
    "bij-large": {"bij": ({"sizes": LADDER, "trees": [8, 4, 2, 1]}, 1)},
    "small-maps": {"census": ({"censuses": ALL_CENSUSES}, 1),
                   "sample": ({"ns": [1, 2, 3], "draws": 700}, 3)},
    "exact": {"constants": ({"genus": 2, "calls": 1}, 1),
              "series": ({"genus": 2, "order": 100}, 1),
              "series_hi": ({"genus": 1, "order": 400}, 1)},
}

SMOKE = {
    "bij": ({"sizes": [4, 8], "trees": [2, 1]}, 1),
    "census": ({"censuses": [[1, 0], [2, 0], [2, 1]]}, 1),
    "sample": ({"ns": [1, 2, 3], "draws": 12}, 1),
    "constants": ({"genus": 1, "calls": 2}, 1),
    "series": ({"genus": 1, "order": 12}, 1),
    "series_hi": ({"genus": 1, "order": 20}, 1),
}
JOBS = list(SMOKE)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "close.faces_per_s": "1/s",
    "open.faces_per_s": "1/s",
    "quad.faces_per_s": "1/s",
    "sample.per_s": "1/s",
    "census.roundtrip_s": "s",
    "constants_s": "s",
    "series_s": "s",
    "series_hi_s": "s",
}


def _distribution(base: str) -> dict:
    return {base: "us", base + ".tail": "us", base + ".tail_pct": "%",
            base + ".samples": "count"}


PER_LAYER = {
    "rotmap.construct.us_per_dart": "us",
    "rotmap.canonical_key.us_per_dart": "us",
    "labeling.distance_labels.us_per_dart": "us",
    **{f"bijection.{op}.s.n{n}": "s" for op in ("close", "open") for n in LADDER},
    "bijection.close.slope": "1",
    "bijection.open.slope": "1",
    **_distribution("bijection.close_rooted.us_per_call"),
    **_distribution("bijection.open_rooted.us_per_call"),
    **{f"quad.{op}.s.n{n}": "s" for op in ("quad_to_map", "map_to_quad")
       for n in LADDER},
    "quad.quad_to_map.slope": "1",
    "mapio.write.us_per_dart": "us",
    "mapio.parse.us_per_dart": "us",
    "sampler.tree.us_per_edge": "us",
    **{k: v for n in (1, 2, 3) for k, v in
       _distribution(f"sampler.sample.us.n{n}").items()},
    "census.quads.s": "s",
    "census.quads.count": "count",
    "census.wl.s": "s",
    "census.wl.count": "count",
    "census.shapes.s": "s",
    "census.shapes.count": "count",
    "schemes.dominant.s": "s",
    "schemes.dominant.count": "count",
    "schemes.iter.s": "s",
    "schemes.iter.count": "count",
    "schemes.d_profile.s": "s",
    "schemes.profiles.count": "count",
    "schemes.profile_yield": "1",
    "series.tau.s": "s",
    "series.tau.self_s": "s",
    "series.rhat_exact.s": "s",
    "series.rhat_exact.self_s": "s",
    "series.u_symmetry.s": "s",
    "series.Qg.s": "s",
    "series.Qg_hi.s": "s",
    "series.U.s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


class JobError(RuntimeError):
    """A job crashed or ran past the deadline: there is no result."""


# -- running jobs ----------------------------------------------------------


def plan(workload: str, seed: int, smoke: bool, once: bool) -> list[dict]:
    """The workload's job specs, each run with its own seed. The k runs
    of a job sit at 1/2k, 3/2k, ... of the way through the run, so the
    runs of every job are spread over its whole length."""
    placed = []
    for job in JOBS:
        params, count = SMOKE[job] if smoke else \
            WORKLOADS[workload].get(job, PROBES[job])
        count = 1 if once else count
        placed += [((rep + 0.5) / count,
                    {"job": job, **params, "seed": f"{seed}:{job}:{rep}"})
                   for rep in range(count)]
    return [spec for _, spec in sorted(placed, key=lambda p: p[0])]


def run_job(spec: dict, trace: bool, started: float) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    left = DEADLINE_S - (time.perf_counter() - started)
    if left <= 0:
        raise JobError("deadline passed before the job could start")
    spec = {**spec, "trace": trace, "spawned": time.perf_counter()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "jobs.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        raise JobError(f"job {spec['job']} ran past the deadline") from None
    if proc.returncode != 0:
        raise JobError(f"job {spec['job']} exited {proc.returncode}:\n"
                       f"{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["spec"] = {k: v for k, v in spec.items() if k != "spawned"}
    return out


def run_all(specs: list[dict], trace: bool, started: float) -> list[dict]:
    return [run_job(spec, trace, started) for spec in specs]


# -- end-to-end metrics ----------------------------------------------------


def steady(record: dict) -> dict:
    """The record's times rescaled to the reference pace."""
    k = PACE_REF / record["pace_s"]
    values = {name: v / k if name.endswith("_per_s") else
              v * k if name.endswith("_s") else v
              for name, v in record["values"].items()}
    return {**record, "work_s": record["work_s"] * k, "values": values}


def _best(records: list[dict], job: str, value, pick=min) -> float:
    return pick(value(steady(r)) for r in records if r["job"] == job)


def wall_s(records: list[dict]) -> float:
    """Import done to all outputs checked, once per job: the sum over
    jobs of each job's best work time at the reference pace."""
    return sum(_best(records, j, lambda r: r["work_s"])
               for j in {r["job"] for r in records})


def end_to_end(records: list[dict]) -> dict:
    def rate(job, key):
        return _best(records, job, lambda r: r["values"][key], max)

    return {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": wall_s(records),
        "peak_rss_mb": max(r["rss_kb"] for r in records) / 1024,
        "close.faces_per_s": rate("bij", "close_faces_per_s"),
        "open.faces_per_s": rate("bij", "open_faces_per_s"),
        "quad.faces_per_s": rate("bij", "quad_faces_per_s"),
        "sample.per_s": rate("sample", "sample_per_s"),
        "census.roundtrip_s": _best(records, "census", lambda r: r["work_s"]),
        "constants_s": _best(records, "constants", lambda r: r["values"]["call_s"]),
        "series_s": _best(records, "series", lambda r: r["values"]["call_s"]),
        "series_hi_s": _best(records, "series_hi", lambda r: r["values"]["call_s"]),
    }


# -- per-layer metrics -----------------------------------------------------


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def distribution(base: str, seconds: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples
    beyond it, in microseconds, with the sample count. With fewer than
    eleven samples the tail is the maximum."""
    us = sorted(s * 1e6 for s in seconds)
    n = len(us)
    j = n - 11 if n >= 11 else n - 1
    return {base: statistics.median(us), base + ".tail": us[j],
            base + ".tail_pct": 100.0 * (j + 1) / n,
            base + ".samples": n}


def per_layer(records: list[dict], ladder: dict, overhead: float) -> dict:
    def spans_of(job):
        return Spans(next(r for r in records if r["job"] == job)["spans"])

    B, C, P = Spans(ladder["spans"]), spans_of("census"), spans_of("sample")
    K, R, H = spans_of("constants"), spans_of("series"), spans_of("series_hi")
    series_rec = next(r for r in records if r["job"] == "series")

    def per_unit(spans, name):
        return spans.total(name) / spans.sizes(name) * 1e6

    m = {
        "rotmap.construct.us_per_dart": per_unit(B, "rotmap.construct"),
        "rotmap.canonical_key.us_per_dart": per_unit(C, "rotmap.canonical_key"),
        "labeling.distance_labels.us_per_dart":
            per_unit(B, "labeling.distance_labels"),
    }
    for op in ("bijection.close", "bijection.open", "quad.quad_to_map",
               "quad.map_to_quad"):
        times = [statistics.median(B.durations(op, n)) for n in LADDER]
        m.update({f"{op}.s.n{n}": t for n, t in zip(LADDER, times)})
        if op != "quad.map_to_quad":
            m[f"{op}.slope"] = slope(LADDER, times)
    for op in ("close_rooted", "open_rooted"):
        m.update(distribution(f"bijection.{op}.us_per_call",
                              C.durations(f"bijection.{op}")))
    m["mapio.write.us_per_dart"] = per_unit(B, "mapio.write")
    m["mapio.parse.us_per_dart"] = per_unit(B, "mapio.parse")
    m["sampler.tree.us_per_edge"] = per_unit(B, "sampler.tree")
    for n in (1, 2, 3):
        m.update(distribution(f"sampler.sample.us.n{n}",
                              P.durations("sampler.sample", n)))
    for name, spans in (("census.quads", C), ("census.wl", C),
                        ("census.shapes", R), ("schemes.iter", R)):
        m[f"{name}.s"] = spans.total(name)
        m[f"{name}.count"] = spans.sizes(name)
    # the constants job may repeat its call: report one call's share
    calls = len(K.of("series.asympt_constant"))
    m["schemes.dominant.s"] = K.total("schemes.dominant") / calls
    m["schemes.dominant.count"] = K.sizes("schemes.dominant") // calls
    profiles = series_rec["values"]["profiles"]
    m["schemes.d_profile.s"] = R.total("schemes.d_profile")
    m["schemes.profiles.count"] = profiles
    m["schemes.profile_yield"] = profiles / m["schemes.iter.count"]
    m["series.tau.s"] = K.total("series.tau") / calls
    m["series.tau.self_s"] = K.self_time("series.tau") / calls
    m["series.rhat_exact.s"] = R.total("series.rhat_exact")
    m["series.rhat_exact.self_s"] = R.self_time("series.rhat_exact")
    m["series.u_symmetry.s"] = R.total("series.u_symmetry")
    m["series.Qg.s"] = R.total("series.Qg")
    m["series.Qg_hi.s"] = H.total("series.Qg_hi")
    m["series.U.s"] = H.total("series.U")
    m["trace.overhead_s"] = overhead
    m["trace.spans"] = sum(r["spans"]["count"] for r in records)
    return m


# -- work counts the oracles fix -------------------------------------------


def count_checks(records: list[dict], metrics: dict) -> dict:
    """Compare the traced work counts with their invariants; the result
    is a record of its own, one operation per count."""
    def spec(job):
        return next(r["spec"] for r in records if r["job"] == job)

    g, gc = spec("series")["genus"], spec("constants")["genus"]
    census = sum(oracles.CENSUS[h][n] for n, h in spec("census")["censuses"])
    want = {
        "census.quads.count": census,
        "census.wl.count": census,
        "census.shapes.count": sum(oracles.SHAPE_COUNTS[g].values()),
        "schemes.iter.count": oracles.SCHEME_COUNTS[g],
        "schemes.dominant.count": oracles.DOMINANT_COUNTS[gc],
        "schemes.profiles.count": oracles.PROFILE_COUNTS[g],
    }
    bad = [f"{k} = {metrics[k]}, expected {v}" for k, v in want.items()
           if metrics[k] != v]
    return {"job": "counts", "attempted": len(want), "failed": len(bad),
            "failures": bad}


# -- the run ---------------------------------------------------------------


def provenance(args) -> dict:
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
            "commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "machine": platform.machine()}


def measure(args, started: float) -> tuple[dict, list[dict]]:
    """The metrics and every job record the run produced."""
    specs = plan(args.workload, args.seed, args.smoke, once=bool(args.trace))
    if not args.trace:
        records = []
        while True:
            records += run_all(specs, False, started)
            if time.perf_counter() - started >= args.seconds:
                return end_to_end(records), records
    untraced = run_all(specs, False, started)
    traced = run_all(specs, True, started)
    # per-layer names carry the ladder sizes: trace them on every workload
    own = [r for r in traced if r["job"] == "bij" and r["spec"]["sizes"] == LADDER]
    extra = [] if own else [run_job(
        {"job": "bij", "sizes": LADDER, "trees": [1] * len(LADDER),
         "seed": f"{args.seed}:ladder:0"}, True, started)]
    metrics = per_layer(traced + extra, (own or extra)[0],
                        wall_s(traced) - wall_s(untraced))
    return metrics, untraced + traced + extra + [count_checks(traced, metrics)]


def main(argv=None) -> int:
    started = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "surfmaps" / "__init__.py").is_file():
        print(f"no surfmaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        metrics, records = measure(args, started)
    except JobError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    units = PER_LAYER if args.trace else END_TO_END
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = [{"job": r["job"], "spec": r["spec"], "spans": r.pop("spans")}
             for r in records if "spans" in r]
    info = {"provenance": provenance(args), "result": result,
            "wall_s_total": time.perf_counter() - started, "jobs": records}
    (OUT / f"result-{stem}.json").write_text(json.dumps(info, indent=1))
    if spans:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(spans))

    for r in records:
        for what in r["failures"]:
            print(f"FAILED {r['job']}: {what}", file=sys.stderr)
    for k, u in units.items():
        print(f"{k:40s} {metrics[k]:>16.6g} {u}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
