"""End-to-end benchmark of `stringcone verify`, with an optional traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads are defined in workloads.json.  Each
sample is a fresh single-threaded interpreter (child.py) that imports
stringcone from ./src and calls `stringcone.cli.main(argv)` once; samples run
one at a time until the next one would end after S seconds (at least one
runs).  Every sample must exit 0 and print exactly the workload's pinned
stdout, otherwise it counts as failed.  Before the first sample and after
every sample, a probe process only imports stringcone, to time set-up.

--trace 0 reports the end-to-end metrics:
    wall_s       median duration of the cli.main call on an unloaded core:
                 child.SpeedProbe measures each call in units of a reference
                 loop timed every 5 ms while it runs, and converts them at
                 the loop's unloaded time.  The report line keeps every
                 sample's plain wall time as well.
    setup_s      median time from process start until stringcone is imported,
                 over every probe and sample process, at unloaded speed: each
                 process's time is scaled by the unloaded time of child.py's
                 reference loop over that loop's time just after the import
    peak_rss_mb  median peak resident memory of a sample process
--trace 1 leaves time in the S seconds for one more sample, traced by
tracer.py, and reports its per-layer metrics.  The counts that define the
workload's answer (checks, failed checks, cone points) must equal the ones
pinned in workloads.json, and every count must equal the one recorded by the
first traced run of the workload in this checkout.  The spans and recorded
counts go to perfbench/out/.

All inputs are exhaustive enumerations, so --seed does not change them; it is
recorded with the environment.  A report line with the raw samples and the
environment precedes the result, which is the last stdout line.  The exit
code is 0 when every sample passed the correctness gate, 1 when one did not,
and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from child import REFERENCE_LOOP_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

SETUP_PROCESSES = 12  # probes before the first sample; one more follows every sample
RUN_LIMIT_S = 170  # every run must end within 180 s


class SampleError(RuntimeError):
    """A child process that crashed, timed out or printed no record."""


def load_workloads() -> dict:
    with open(os.path.join(HERE, "workloads.json")) as handle:
        return json.load(handle)["workloads"]


def spawn(args: list[str], timeout: float) -> dict:
    """Run child.py once; add setup_s, the time until stringcone was imported.

    plain_setup_s is that time as measured; setup_s brings it to the host's
    unloaded speed, as SpeedProbe does for the call.
    """
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, *args], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"child timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SampleError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(lines[-1])
    record["plain_setup_s"] = record["ready"] - started
    record["setup_s"] = record["plain_setup_s"] * REFERENCE_LOOP_S / record["loop_s"]
    record["elapsed_s"] = time.monotonic() - started
    return record


def gate(workload: dict, record: dict) -> str | None:
    """Why a sample fails the correctness gate, or None when it passes."""
    if not record["module"].startswith(SRC + os.sep):
        return f"stringcone was imported from {record['module']}, not {SRC}"
    if record.get("error"):
        return f"cli.main raised:\n{record['error']}"
    if record["exit"] != 0:
        return f"exit code {record['exit']}"
    if record["stdout"] != workload["stdout"]:
        return f"stdout {record['stdout']!r} differs from {workload['stdout']!r}"
    return None


def count_mismatches(layers: dict, expected: dict, source: str) -> list[str]:
    return [
        f"{name} = {layers.get(name)}, {source} {value}"
        for name, value in expected.items()
        if layers.get(name) != value
    ]


def repeat_mismatches(name: str, layers: dict, src_digest: str) -> list[str]:
    """Compare every count with an earlier traced run of the same sources.

    The first traced run of a workload records its counts, keyed by a digest
    of src/; later runs of the same sources must reproduce them exactly.
    """
    counts = {k: v for k, v in layers.items() if unit(k) != "s"}
    path = os.path.join(OUT_DIR, f"counts-{name}.json")
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier.get("src_digest") == src_digest:
            return count_mismatches(counts, earlier["counts"], "an earlier run had")
    with open(path, "w") as handle:
        json.dump({"src_digest": src_digest, "counts": counts}, handle, indent=1, sort_keys=True)
    return []


def tail_percentile(values: list[float]) -> dict:
    """The highest of p99/p90 with at least ten samples beyond it, if any."""
    for p in (99, 90):
        if len(values) * (100 - p) / 100 >= 10:
            return {f"p{p}": statistics.quantiles(values, n=100)[p - 1]}
    return {}


def environment(seed: int) -> dict:
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # checkouts without history have none
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except OSError:
            pass
    src_lines = 0
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        with open(path, "rb") as handle:
            text = handle.read()
        src_lines += text.count(b"\n")
        digest.update(os.path.relpath(path, SRC).encode() + b"\0" + text)
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "src_lines": src_lines,
        "src_digest": digest.hexdigest(),
    }


def run(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; return the result object and what went wrong."""
    workload = load_workloads()[name]
    argv = json.dumps(workload["argv"])
    start = time.monotonic()
    end = start + seconds

    def remaining() -> float:
        return RUN_LIMIT_S - (time.monotonic() - start)

    failures: list[str] = []  # one per failed sample
    mismatches: list[str] = []  # counts of the traced sample that differ
    attempted = 0
    samples: list[dict] = []

    def sample(args: list[str]) -> dict | None:
        nonlocal attempted
        attempted += 1
        try:
            record = spawn(args, remaining())
        except SampleError as exc:
            failures.append(str(exc))
            return None
        problem = gate(workload, record)
        if problem:
            failures.append(problem)
            return None
        return record

    spawn(["setup"], remaining())  # compiles bytecode; not measured
    probes = [spawn(["setup"], remaining()) for _ in range(SETUP_PROCESSES)]
    durations: list[float] = []
    while remaining() > 0:
        record = sample(["run", argv])
        if record is None:
            break
        probes.append(spawn(["setup"], remaining()))
        samples.append(record)
        durations.append(record["elapsed_s"] + probes[-1]["elapsed_s"])
        estimate = statistics.median(durations)
        reserve = estimate if trace else 0.0
        if time.monotonic() + estimate > end - reserve:
            break

    walls = [r["wall_s"] for r in samples]
    steadies = [r["steady_s"] for r in samples]
    setups = [r["setup_s"] for r in probes + samples]
    env = environment(seed)
    report = {
        "workload": name,
        "argv": workload["argv"],
        "environment": env,
        "samples": {
            "wall_s": walls,
            "steady_s": steadies,
            "probe_s": [r["probe_s"] for r in samples],
            "setup_s": setups,
            "plain_setup_s": [r["plain_setup_s"] for r in probes + samples],
            "peak_rss_mb": [r["peak_rss_kb"] / 1024 for r in samples],
            "cpu_s": [r["cpu_s"] for r in samples],
        },
    }
    metrics: dict[str, dict] = {}
    if not trace and walls:
        metrics = {
            "wall_s": {"value": statistics.median(steadies), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(report["samples"]["peak_rss_mb"]), "unit": "MB"
            },
        }
        report["wall_s"] = {"median": statistics.median(steadies),
                            "plain_median": statistics.median(walls), "count": len(walls),
                            **tail_percentile(steadies)}
    elif trace and not failures:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{name}.jsonl")
        record = sample(["run", argv, trace_file])
        if record is not None:
            layers = record["layers"]
            mismatches = count_mismatches(layers, workload["counts"], "pinned")
            mismatches += repeat_mismatches(name, layers, env["src_digest"])
            self_total = sum(v for k, v in layers.items() if k.endswith(".self_s"))
            layers["trace.wall_s"] = record["wall_s"]
            layers["trace.unattributed_s"] = record["wall_s"] - self_total
            layers["trace.overhead_s"] = record["wall_s"] - statistics.median(walls)
            metrics = {k: {"value": v, "unit": unit(k)} for k, v in layers.items()}
            report["trace_file"] = os.path.relpath(trace_file, ROOT)
            report["untraced_boundaries"] = record["missing"]
    errors = failures + mismatches
    report["error_rate"] = len(failures) / attempted
    report["errors"] = errors
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(report))
    return result, errors


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stringcone", "cli.py")):
        sys.stderr.write(f"error: no stringcone sources under {SRC}\n")
        return 2
    workloads = load_workloads()
    if args.workload not in workloads:
        sys.stderr.write(f"error: unknown workload {args.workload!r}; one of {sorted(workloads)}\n")
        return 2
    result, errors = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in errors:
        sys.stderr.write(f"FAILED: {problem}\n")
    print(json.dumps(result))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
