"""Tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest -q bench/test_bench.py``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gen  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = ["queries_per_s", "query_p50_ms", "query_tail_ms", "identify_p50_ms",
              "derive_p50_ms", "check_p50_ms", "oracle_p50_ms", "derivation_mb",
              "peak_rss_mb", "setup_s", "fail_ratio", "certificate_rate"]


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0 and report["attempted"] >= 1
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(report["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert report["metrics"][m["name"]]["unit"] == m["unit"]
    printed = {line.split()[0] for line in lines[:-1]}
    assert set(END_TO_END) <= printed
    if trace == "1":
        assert {m["name"] for m in SPEC["per_layer"]} <= printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    proc = run_bench("--workload", "corpus", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_spec_covers_benchmark_json():
    spec = wl.SPEC
    assert [w["name"] for w in SPEC["workloads"]] == list(spec["workloads"])
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert names == set(spec["metrics"])
    assert set(END_TO_END) <= names


def test_pools_are_seeded():
    for workload in wl.WORKLOADS:
        assert wl.make_pool(workload, 5) == wl.make_pool(workload, 5)
        assert wl.make_pool(workload, 5) != wl.make_pool(workload, 6)


def test_scale_queries_follow_their_strata():
    strata = wl.SCALE["strata"]
    for i, q in enumerate(wl.make_pool("scale", 2)[:24]):
        assert list(gen.outcome_ancestry(q.graph, q.do, q.on)) == strata[i % len(strata)]


# -- the correctness gate --------------------------------------------------------


def front_door() -> gen.Query:
    g = gen.Graph((("X", True), ("Z", True), ("Y", True), ("U", False)),
                  (("X", "Z"), ("Z", "Y"), ("U", "X"), ("U", "Y")))
    return gen.Query("fd", g, ("X",), ("Y",))


@pytest.fixture
def derived(tmp_path):
    """A front-door derivation written by ``derive --out``, as JSON."""
    q = front_door()
    graph = gen.write_cg(q, tmp_path)
    ops = wl.Ops()
    res = wl.QueryResult(q.qid, 0.0)
    assert ops.identify(q.qid, graph, q, res) is True
    assert ops.derive(q.qid, graph, q, tmp_path / "d.json", True, res)
    assert ops.check(q.qid, tmp_path / "d.json", 5)
    assert ops.failed == 0
    return json.loads((tmp_path / "d.json").read_text())


def steps_of(data: dict):
    """Every step of a derivation JSON, nested fragments included."""
    for step in data["steps"]:
        yield step
        nested = step["justification"].get("derivation")
        if nested is not None:
            yield from steps_of(nested)


def check_fails(data: dict, tmp_path: Path) -> wl.Ops:
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(data))
    ops = wl.Ops()
    assert not ops.check("fd", path, 5)
    return ops


def test_relabelled_rule3_step_raises_fail_ratio(derived, tmp_path):
    step = next(s for s in steps_of(derived) if s["kind"] == "Rule3")
    step["kind"] = "Rule2"
    ops = check_fails(derived, tmp_path)
    assert ops.failed == 1 and ops.failed / ops.attempted > 0


def test_dropped_step_raises_fail_ratio(derived, tmp_path):
    del derived["steps"][len(derived["steps"]) // 2]
    ops = check_fails(derived, tmp_path)
    assert ops.failed == 1 and ops.failed / ops.attempted > 0


def test_reference_mismatch_fails(tmp_path):
    q = front_door()
    graph = gen.write_cg(q, tmp_path)
    ops = wl.Ops(reference={"fd": [True, "0000000000000000"]})
    assert ops.identify(q.qid, graph, q, wl.QueryResult(q.qid, 0.0)) is None
    assert ops.failed == 1


def test_identify_derive_disagreement_fails(tmp_path):
    bow = gen.bow_query("bow")
    graph = gen.write_cg(bow, tmp_path)
    ops = wl.Ops()
    assert not ops.derive(bow.qid, graph, bow, tmp_path / "d.json", True,
                          wl.QueryResult(bow.qid, 0.0))
    assert ops.failed == 1
