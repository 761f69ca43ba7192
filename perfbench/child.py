"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py setup
    python3 perfbench/child.py run ARGV_JSON [TRACE_JSONL]

`setup` imports stringcone and stops.  `run` imports it, then calls
`stringcone.cli.main(argv)` once with stdout captured.  Without TRACE_JSONL a
SpeedProbe times a fixed reference loop every few milliseconds of the call;
with it, the layer boundaries are wrapped instead (see tracer.py) and the
spans written there afterwards.  Either way the last stdout line is one JSON
object:

    ready     time.monotonic() once stringcone is imported (the parent compares
              it with its own clock reading from before the process started)
    loop_s    median time of the reference loop just after the import, which
              the parent uses to bring the set-up time to unloaded speed
    wall_s    duration of the cli.main call, less the probes' own time
    steady_s  wall_s at the host's unloaded speed (SpeedProbe), untraced runs
    probe_s   time spent in the probes, untraced runs
    cpu_s     processor time of this process during the cli.main call
    exit      cli.main's return value, or null when it raised
    stdout    what cli.main printed
    error     the exception text when it raised
    peak_rss_kb  maximum resident set size of this process
    layers    per-layer metrics, traced runs only
    missing   boundary functions the tracer did not find, traced runs only
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import sys
import time
import traceback
from time import perf_counter_ns

PROBE_PERIOD_S = 0.005  # wall time between two probes of the host's speed
PROBE_LOOPS = 750  # iterations of the reference loop in one probe
# seconds one reference loop takes when no other tenant slows the core: the
# 1st percentile of about 6,000 probe times on the 2-core 2.0 GHz Xeon VM this
# benchmark was tuned on (their median was 1.5-2 times as long)
REFERENCE_LOOP_S = 120e-6


def reference_loop() -> dict:
    """Fixed interpreter work of the kind stringcone does: tuples, ints, dicts."""
    table: dict = {}
    item = (0, 0)
    for i in range(PROBE_LOOPS):
        item = (i, item[0] + 1)
        table[i & 63] = item
        if table.get((i * 7) & 63) is None:
            item = (0, 0)
    return table


def loop_s(repeats: int = 9) -> float:
    """Median time of the reference loop, run now."""
    times = []
    for _ in range(repeats):
        start = perf_counter_ns()
        reference_loop()
        times.append(perf_counter_ns() - start)
    return sorted(times)[repeats // 2] / 1e9


class SpeedProbe:
    """Measure a call in units of a reference loop timed while it runs.

    This machine shares its cores: for seconds at a time other tenants slow
    the same code by up to half, and a whole call's wall time mixes both
    speeds.  Every PROBE_PERIOD_S a SIGALRM handler times `reference_loop`.
    Each stretch of the call between two probes counts as its duration over
    the duration of the probe that ends it, so a stretch run at half speed
    next to a probe run at half speed counts the same as at full speed.  The
    sum, times REFERENCE_LOOP_S, is the call's time on an unloaded core.
    """

    def __init__(self) -> None:
        self.marks: list[tuple[int, int]] = []  # (start, end) of every probe, ns

    def _probe(self, signum, frame) -> None:
        start = perf_counter_ns()
        reference_loop()
        self.marks.append((start, perf_counter_ns()))

    def __enter__(self) -> "SpeedProbe":
        for _ in range(3):  # warm up; the last one serves a call with no probes
            start = perf_counter_ns()
            reference_loop()
            self.first = (start, perf_counter_ns())
        signal.signal(signal.SIGALRM, self._probe)
        self.start = perf_counter_ns()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.end = perf_counter_ns()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe_s(self) -> float:
        return sum(end - start for start, end in self.marks) / 1e9

    def steady_s(self) -> float:
        units = 0.0
        last = self.start
        for start, end in self.marks:
            units += (start - last) / (end - start)
            last = end
        tail_start, tail_end = self.marks[-1] if self.marks else self.first
        units += (self.end - last) / (tail_end - tail_start)
        return units * REFERENCE_LOOP_S


def main(argv: list[str]) -> int:
    mode = argv[0]
    import stringcone.cli

    ready = time.monotonic()
    out: dict = {"ready": ready, "loop_s": loop_s(), "module": stringcone.cli.__file__}
    if mode == "run":
        tracer = None
        if len(argv) > 2:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        probe = SpeedProbe() if tracer is None else contextlib.nullcontext()
        captured = io.StringIO()
        code = None
        start = time.perf_counter()
        cpu_start = time.process_time()
        try:
            with probe, contextlib.redirect_stdout(captured):
                code = stringcone.cli.main(json.loads(argv[1]))
        except Exception:
            out["error"] = traceback.format_exc()
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu_start
        out["exit"] = code
        out["stdout"] = captured.getvalue()
        if tracer is None:
            out["probe_s"] = probe.probe_s()
            out["wall_s"] -= out["probe_s"]
            out["cpu_s"] -= out["probe_s"]
            out["steady_s"] = probe.steady_s()
        else:
            out["layers"] = tracer.metrics()
            out["missing"] = tracer.missing
            tracer.write_jsonl(argv[2])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
