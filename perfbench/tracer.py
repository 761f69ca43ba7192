"""Outside-in span tracing of the stringcone layers.

`Tracer.install()` replaces the public boundary functions named in `BOUNDARIES`
with wrappers that record one span per call: name, start, end and parent span.  A
function is replaced in every stringcone module namespace that binds it, since
`from ... import name` gives the importing module its own binding (`verify`
calls `cartan.weyl_act` and `quiver.hom_to_simple` that way).  Small helpers
called in hot loops (`ARQuiver.leq`, `lusztig.ideal`, `lusztig.lusztig_weight`,
`strings.string_f`, `wiring.k_vector`, `quiver.rho`, ...) stay unwrapped, since
a span costs microseconds; their time counts as self time of whichever wrapped
caller runs them.

Spans stay in memory until `Tracer.write_jsonl` is called after the run.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter_ns

# module -> public functions wrapped as that module's layer boundary
BOUNDARIES = {
    "cli": ["main"],
    "verify": [
        "run_suite", "check_theorem_2_4", "check_cone", "check_conjecture",
        "structural_reports",
    ],
    "strings": [
        "strings_in_box", "is_string", "in_cone", "generate_strings", "cone_points_pruned",
    ],
    "lusztig": ["lusztig_e", "all_moves", "move_vectors", "lusztig_crystal"],
    "wiring": ["build_wiring", "gp_paths", "gp_table", "gp_cone", "antichain_path", "zones"],
    "arquiver": ["build_ar", "grid_A"],
    "cartan": ["path_diagram", "reflection_ordering", "weyl_act", "w0_involution"],
    "quiver": [
        "parse_quiver", "all_orientations", "adapted_word", "is_adapted", "condition_L",
        "hom_to_simple",
    ],
    "crystal": ["bfs_crystal"],
}

# functions whose inclusive time is reported as `<module>.<function>_s`
INCLUSIVE = [
    "strings.strings_in_box", "strings.is_string", "strings.generate_strings",
    "strings.cone_points_pruned", "lusztig.lusztig_e", "wiring.gp_paths",
    "wiring.antichain_path", "arquiver.grid_A",
]

# functions whose call count is reported as `<module>.<function>_calls`
CALLS = [
    "strings.is_string", "strings.in_cone", "lusztig.lusztig_e", "arquiver.build_ar",
    "cartan.weyl_act", "quiver.hom_to_simple",
]

# functions whose results feed `Tracer.counts`
COUNTED = {
    "strings.strings_in_box", "strings.generate_strings", "strings.cone_points_pruned",
    "lusztig.all_moves", "lusztig.move_vectors", "wiring.gp_paths", "crystal.bfs_crystal",
    *(f"verify.{name}" for name in BOUNDARIES["verify"]),
}

ROOT = -1  # parent index of a span with no traced caller


def _box_volume(args) -> int:
    """Points scanned by `strings_in_box(diagram, word, box)`."""
    word, box = args[1], args[2]
    return (box + 1) ** len(tuple(word))


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []  # (name, start_ns, end_ns, parent index)
        self.counts: dict[str, int] = {
            "strings.box_volume": 0,
            "strings.box_strings": 0,
            "strings.generated_points": 0,
            "strings.cone_points": 0,
            "lusztig.antichains": 0,
            "lusztig.moves": 0,
            "wiring.paths": 0,
            "crystal.vertices": 0,
            "verify.checks": 0,
            "verify.failed_checks": 0,
        }
        self.missing: list[str] = []  # boundary functions the package no longer has
        self._stack = [ROOT]

    def _count(self, name: str, args, result, parent: int) -> None:
        c = self.counts
        if name == "strings.strings_in_box":
            c["strings.box_volume"] += _box_volume(args)
            c["strings.box_strings"] += len(result)
        elif name == "strings.generate_strings":
            c["strings.generated_points"] += len(result)
        elif name == "strings.cone_points_pruned":
            c["strings.cone_points"] += len(result)
        elif name == "lusztig.all_moves":
            c["lusztig.antichains"] += len(result)
        elif name == "lusztig.move_vectors":
            c["lusztig.moves"] += len(result)
        elif name == "wiring.gp_paths":
            c["wiring.paths"] += len(result)
        elif name == "crystal.bfs_crystal":
            c["crystal.vertices"] += len(result.vertices)
        elif name.startswith("verify.") and self._is_top_check(parent):
            # a verdict handed to the CLI: a suite summary or one report
            reports = result.reports if name == "verify.run_suite" else [result]
            c["verify.checks"] += len(reports)
            c["verify.failed_checks"] += sum(not r.passed for r in reports)

    def _is_top_check(self, parent: int) -> bool:
        return parent == ROOT or not self.spans[parent][0].startswith("verify.")

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = self._count if name in COUNTED else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            idx = len(spans)
            spans.append((name, None, None, parent))  # completed below
            stack.append(idx)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                count(name, args, result, parent)
            return result

        return traced

    def install(self) -> None:
        """Wrap every boundary function in every stringcone namespace binding it."""
        import stringcone.cli  # noqa: F401  (loads every layer module)

        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "stringcone"]
        for module, names in BOUNDARIES.items():
            home = sys.modules[f"stringcone.{module}"]
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:  # renamed or removed since this list was written
                    self.missing.append(f"{module}.{fname}")
                    continue
                traced = self.wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, traced)

    def metrics(self) -> dict[str, float]:
        """Per-layer self time, inclusive time of named functions, and counts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent != ROOT:
                child_ns[parent] += end - start
        self_ns = {module: 0 for module in BOUNDARIES}
        inclusive_ns = {name: 0 for name in INCLUSIVE}
        calls = {name: 0 for name in CALLS}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            self_ns[name.split(".")[0]] += end - start - child_ns[idx]
            if name in inclusive_ns:
                inclusive_ns[name] += end - start
            if name in calls:
                calls[name] += 1
        out: dict[str, float] = {}
        for module, ns in self_ns.items():
            out[f"{module}.self_s"] = ns / 1e9
        for name, ns in inclusive_ns.items():
            out[f"{name}_s"] = ns / 1e9
        for name, n in calls.items():
            out[f"{name}_calls"] = n
        counts = dict(self.counts)
        box_strings = counts.pop("strings.box_strings")
        out.update(counts)
        volume = counts["strings.box_volume"]
        out["strings.box_hit_ratio"] = box_strings / volume if volume else 0.0
        out["trace.spans"] = len(self.spans)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for idx, (name, start, end, parent) in enumerate(self.spans):
                handle.write(json.dumps(
                    {"id": idx, "name": name, "start_ns": start, "end_ns": end,
                     "parent": None if parent == ROOT else parent}
                ) + "\n")
