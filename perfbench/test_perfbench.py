"""The benchmark's own tests, at smoke sizes.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import jobs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_run_reports_every_metric(workload, trace):
    code, result = smoke(workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_wrong_expected_value_is_a_failed_operation(monkeypatch):
    monkeypatch.setitem(oracles.CONSTANT, 1, (Fraction(1, 25), 0))
    record = jobs.run_job({"job": "constants", "genus": 1, "calls": 1,
                           "trace": False})
    assert record["attempted"] == 2
    assert record["failed"] == 1
    assert "c(1)" in record["failures"][0]


def test_wrong_work_count_is_a_failed_operation(monkeypatch):
    monkeypatch.setitem(oracles.SCHEME_COUNTS, 1, 5)
    records = [{"job": "series", "spec": {"genus": 1}},
               {"job": "constants", "spec": {"genus": 1}},
               {"job": "census", "spec": {"censuses": [[1, 0]]}}]
    metrics = {"census.quads.count": 2, "census.wl.count": 2,
               "census.shapes.count": 2, "schemes.iter.count": 4,
               "schemes.dominant.count": 2, "schemes.profiles.count": 3}
    record = run.count_checks(records, metrics)
    assert record["attempted"] == 6 and record["failed"] == 1


def test_recurrence_matches_known_counts():
    Q = oracles.rooted_map_counts(3, 6)
    assert Q[0][:6] == [oracles.planar_count(n) for n in range(6)] and Q[0][0] == 1
    assert Q[1][2:5] == [1, 20, 307]
    assert Q[2][4:6] == [21, 966]
    assert Q[3][6] == 1485


def test_tail_percentile_keeps_ten_samples_beyond():
    d = run.distribution("x", [i / 1e6 for i in range(1, 101)])
    assert d["x.samples"] == 100
    assert d["x.tail"] == pytest.approx(90.0)
    assert d["x.tail_pct"] == 90.0


def test_slope_of_a_power_law():
    assert run.slope([1, 2, 4, 8], [3, 12, 48, 192]) == pytest.approx(2.0)


def test_bare_directory_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
