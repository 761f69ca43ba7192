"""Mutation self-test of the structural sweep.

Each row below is a one-line fault put into a copy of `src/`: the module, a
text that occurs there exactly once, its replacement, and the outcome the
verification must show.  That outcome is either the checks that must report a
failure (a per-type check counts under its name without `_type{i}`) or the
exception that must end the run, for a fault that breaks the set-up before any
check runs.  The run is `run_suite(5, 1)` plus `structural_reports` on every
orientation of D4 and D5, in a fresh interpreter on a temporary copy of the
package.  This file sits outside the tier-1 `testpaths`:

    python3 -m pytest -q mutation/test_mutants.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (name, module, old text, new text, checks that must fail or the exception raised)
MUTANTS = [
    ("arrow-gate-ge", "arquiver.py", "if last[a] > prev:", "if last[a] >= prev:",
     "IndexError"),
    ("down-set-direct-only", "arquiver.py", "mask |= down[last[a] - 1]", "mask |= 1 << last[a]",
     ["move_weight_increment", "moves_equal_path_cone", "path_antichain_bijection",
      "string_cone_box1", "zone_positions"]),
    ("tau-one-step-back", "arquiver.py", "tau[k] = prev", "tau[k] = max(prev - 1, 1)",
     ["mesh_relation", "move_weight_increment", "moves_equal_path_cone",
      "path_antichain_bijection", "raising_witness", "string_cone_box1",
      "translation_is_coxeter"]),
    ("first-maximizer", "lusztig.py", "if row[1].mask == union:", "if True:",
     ["raising_witness"]),
    ("sink-test-ge", "quiver.py", "last[j] > li or", "last[j] >= li or",
     ["coxeter_rho", "grid_order", "hom_nonnegative", "lambda_plus_column_map",
      "level_endpoints", "membership_pairing", "move_weight_increment",
      "moves_equal_path_cone", "path_antichain_bijection", "string_cone_box1",
      "zone_positions"]),
    ("hom-without-order-gate", "quiver.py",
     "if not ar.leq(k, ar.simple_positions[i - 1]):", "if False:",
     ["hom_nonnegative"]),
    ("grid-order-flipped", "arquiver.py", "return c1[0] >= c2[0] and c1[1] >= c2[1]",
     "return c1[0] <= c2[0] and c1[1] <= c2[1]",
     ["grid_order"]),
    ("coxeter-weight-sinks-unreversed", "quiver.py",
     "weyl_act(q.diagram, sink_order(q)[::-1], v, basis",
     "weyl_act(q.diagram, sink_order(q), v, basis",
     ["coxeter_rho"]),
    ("path-indicator-flipped", "arquiver.py", "if into != forward and", "if into == forward and",
     ["level_endpoints"]),
    ("cominimal-any-meet", "lusztig.py", "down[x] & rest == 1 << x", "down[x] & rest",
     ["move_weight_increment", "moves_equal_path_cone", "path_antichain_bijection",
      "raising_witness", "string_cone_box1"]),
    ("antichain-incomparable-above", "lusztig.py",
     "if not (ideal_mask >> cand & 1 or down[cand] & chosen_mask):",
     "if not ideal_mask >> cand & 1:",
     ["move_weight_increment", "moves_equal_path_cone", "path_antichain_bijection",
      "raising_witness"]),
    ("chamber-weight-double", "wiring.py", "out[j - 2] -= 1", "out[j - 2] -= 2",
     ["chamber_weights", "lambda_plus_column_map", "membership_pairing"]),
    ("forward-wire-ge", "wiring.py", "return wire > i", "return wire >= i",
     ["limiting_path", "moves_equal_path_cone", "path_antichain_bijection",
      "zone_border_on_limiting"]),
    ("hammock-every-position", "arquiver.py", "if self.roots[k - 1][i - 1] > 0)",
     "if self.roots[k - 1][i - 1] >= 0)",
     ["grid_order", "hammock_isomorphism"]),
    ("zone-without-right-cap", "wiring.py", "y |= {lo, hi} - {0}", "y |= {lo} - {0}",
     ["paths_inside_zone"]),
    ("string-code-base-box", "strings.py", "(box + 1) ** k", "box ** k",
     ["string_cone_box1"]),
    ("cone-sum-not-taken-back", "strings.py", "partial[t] -= c * v", "partial[t] -= 0",
     ["string_cone_box1"]),
    ("cone-code-step-unweighted", "strings.py", "code = codes[k] = codes[k] + weight[k]",
     "code = codes[k] = codes[k] + 1", ["string_cone_box1"]),
    ("cone-last-range-short", "strings.py", "code + hi * w_last + 1", "code + hi * w_last",
     ["string_cone_box1"]),
    ("raise-scan-ge", "strings.py", "if s[p] > m:", "if s[p] >= m:", ["string_cone_box1"]),
    ("raise-tie-strict", "strings.py", "max(m - base, 0)", "max(m - base + 1, 0)",
     ["string_cone_box1"]),
    ("closure-fill-short", "strings.py", "bits | full & -(bits ^ lifted)",
     "bits | full >> 1 & -(bits ^ lifted)", ["string_cone_box1"]),
    ("lower-last-max", "strings.py", "for low in ps:", "for low in reversed(ps):",
     ["string_cone_box1"]),
    ("lower-at-zero-max", "strings.py", "elif low is None and m > 0:",
     "elif low is None and m >= 0:", ["string_cone_box1"]),
    ("lower-last-tie", "strings.py", "max(top + 1, 1) - base", "max(top, 1) - base",
     ["string_cone_box1"]),
    ("closure-box-gate-le", "strings.py", "if lifted and s[n + k] < box:",
     "if lifted and s[n + k] <= box:", ["string_cone_box1"]),
    ("certificate-stack-order", "strings.py", "code, s = queue.popleft()",
     "code, s = queue.pop()", ["string_cone_box1"]),
    ("k-vector-drop-ge", "wiring.py", "if h > l:", "if h >= l:",
     ["limiting_path", "moves_equal_path_cone", "path_antichain_bijection"]),
    ("turn-onto-wire-i-ge", "wiring.py", "h > i >= l", "h >= i >= l",
     ["path_antichain_bijection"]),
    ("staircase-stops-early", "wiring.py", "stop = at[k] + 1", "stop = at[k]",
     ["limiting_path", "path_antichain_bijection", "paths_inside_zone",
      "zone_border_on_limiting", "zone_positions"]),
    ("u-counts-cominimals", "lusztig.py", "for k in _translates(ar, comin):", "for k in comin:",
     ["move_weight_increment", "moves_equal_path_cone", "path_antichain_bijection",
      "raising_witness", "string_cone_box1"]),
    ("reflect-wrong-row", "cartan.py", "-= sum(c * out[j] for j, c in support[i - 1])",
     "-= sum(c * out[j] for j, c in support[i - 2])", "InvariantViolation"),
]

SWEEP = r"""
import json, re
from stringcone.cartan import d_diagram
from stringcone.quiver import all_orientations
from stringcone.verify import run_suite, structural_reports
try:
    reports = run_suite(5, 1).reports
    for n in (4, 5):
        for q in all_orientations(d_diagram(n)):
            reports += structural_reports(q)
except Exception as exc:
    print(json.dumps(type(exc).__name__))
else:
    print(json.dumps(sorted({re.sub(r"_type\d+$", "", r.check) for r in reports if not r.passed})))
"""


def sweep(tmp_path, module=None, old=None, new=None):
    """The outcome of the sweep on a copy of `src/` with `old` replaced by `new`
    in `module`: the sorted failing check names, or the exception's name."""
    src = tmp_path / "src"
    shutil.copytree(os.path.join(ROOT, "src"), src)
    if module is not None:
        path = src / "stringcone" / module
        text = path.read_text()
        assert text.count(old) == 1, f"{old!r} must occur once in {module}"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-c", SWEEP], env=env, cwd=tmp_path, capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_unmutated_copy_passes(tmp_path):
    assert sweep(tmp_path) == []


@pytest.mark.parametrize(
    "module, old, new, outcome", [row[1:] for row in MUTANTS], ids=[row[0] for row in MUTANTS]
)
def test_mutant_is_caught(tmp_path, module, old, new, outcome):
    found = sweep(tmp_path, module, old, new)
    if isinstance(outcome, str):
        assert found == outcome
    else:
        assert set(outcome) <= set(found), found


def test_every_structural_check_is_tripped():
    # a report name that no mutant trips could not fail unnoticed, so each
    # check of the table is the expected failure of some row
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from stringcone.verify import STRUCTURAL_CHECKS
    finally:
        sys.path.pop(0)
    tripped = {name for row in MUTANTS if not isinstance(row[4], str) for name in row[4]}
    names = {check.__name__ for _, checks in STRUCTURAL_CHECKS for check in checks}
    assert names <= tripped, sorted(names - tripped)
