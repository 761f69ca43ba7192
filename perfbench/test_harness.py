"""Self-test of the benchmark harness on the tiny `selftest` workload.

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import child  # noqa: E402
import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def bench(root: str, trace: int) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "selftest", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.splitlines()


def check_result(lines: list[str], declared: list[dict]) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    return result


def test_untraced_run_prints_every_end_to_end_metric():
    code, lines = bench(ROOT, 0)
    assert code == 0
    result = check_result(lines, BENCHMARK["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    report = json.loads(lines[-2])
    assert set(report["environment"]) == {
        "python", "nproc", "git_commit", "seed", "src_lines", "src_digest"
    }
    assert report["environment"]["seed"] == 7


def test_traced_run_prints_every_per_layer_metric():
    code, lines = bench(ROOT, 1)
    assert code == 0
    metrics = check_result(lines, BENCHMARK["per_layer"])["metrics"]
    assert metrics["verify.checks"]["value"] == 71
    assert metrics["strings.cone_points"]["value"] == 14
    assert json.loads(lines[-2])["untraced_boundaries"] == []


def test_gate_rejects_wrong_payload():
    workload = run.load_workloads()["selftest"]
    good = {
        "module": os.path.join(run.SRC, "stringcone", "cli.py"),
        "exit": 0,
        "stdout": workload["stdout"],
    }
    assert run.gate(workload, good) is None
    assert "stdout" in run.gate(workload, dict(good, stdout="all checks passed (70 checks)\n"))
    assert "exit code" in run.gate(workload, dict(good, exit=1))
    assert "raised" in run.gate(workload, dict(good, exit=None, error="Traceback ..."))
    assert "imported from" in run.gate(workload, dict(good, module="/elsewhere/cli.py"))


def test_count_mismatch_is_reported():
    assert run.count_mismatches({"verify.checks": 71}, {"verify.checks": 71}, "pinned") == []
    assert run.count_mismatches({"verify.checks": 70}, {"verify.checks": 71}, "pinned") == [
        "verify.checks = 70, pinned 71"
    ]


def test_speed_probe_counts_each_stretch_in_reference_loops():
    probe = child.SpeedProbe()
    probe.start, probe.end = 0, 330
    probe.marks = [(100, 110), (210, 230)]  # the second probe ran at half speed
    units = 100 / 10 + 100 / 20 + 100 / 20  # the tail counts at the last probe's speed
    assert probe.steady_s() == units * child.REFERENCE_LOOP_S
    assert probe.probe_s() == 30 / 1e9


def test_speed_probe_probes_during_a_call():
    with child.SpeedProbe() as probe:
        deadline = child.perf_counter_ns() + 30_000_000
        while child.perf_counter_ns() < deadline:
            pass
    assert len(probe.marks) >= 3
    assert 0 < probe.steady_s()


def test_wrong_stdout_fails_the_run(tmp_path):
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    spec = tmp_path / "perfbench" / "workloads.json"
    workloads = json.loads(spec.read_text())
    workloads["workloads"]["selftest"]["stdout"] = "all checks passed (70 checks)\n"
    spec.write_text(json.dumps(workloads))
    code, lines = bench(str(tmp_path), 0)
    assert code == 1
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    code, lines = bench(str(tmp_path), 0)
    assert code != 0
    assert lines == []
