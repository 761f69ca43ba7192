import hashlib
import json
import sys
from types import MappingProxyType

import pytest

from stringcone import lusztig, quiver, verify
from stringcone.arquiver import ARQuiver, build_ar
from stringcone.cartan import InvariantViolation, path_diagram
from stringcone.lusztig import Antichain, antichains, move_vectors
from stringcone.quiver import adapted_word, all_orientations, parse_quiver
from stringcone.strings import NotLowered, generate_strings, points
from stringcone.verify import (
    ConditionLFails,
    NotTypeAInstance,
    VerificationReport,
    check_cone,
    check_conjecture,
    check_theorem_2_4,
    run_suite,
    structural_reports,
)
from stringcone.wiring import build_wiring, gp_cone, gp_paths, zones

from reference import point_code


def test_theorem_a2():
    r = check_theorem_2_4(parse_quiver("2>1"), (1, 2, 1))
    assert r.passed and r.witness is None


def test_theorem_a3_typed(a3):
    q, word = a3
    assert check_theorem_2_4(q, word, strict=True).passed


def test_theorem_rejects_type_d(d4):
    with pytest.raises(NotTypeAInstance):
        check_theorem_2_4(d4[0])


def test_cone_a2_box3():
    q = parse_quiver("2>1")
    word = (1, 2, 1)
    wd = build_wiring(word, 2)
    r = check_cone(q.diagram, word, gp_cone(wd), 3)
    assert r.passed


def test_cone_a3_box2(a3):
    q, word = a3
    wd = build_wiring(word, 3)
    assert check_cone(q.diagram, word, gp_cone(wd), 2).passed


def test_cone_reports_witness_when_normal_dropped(a3):
    q, word = a3
    wd = build_wiring(word, 3)
    full = sorted(gp_cone(wd))
    # dropping a mixed-sign normal admits box points that are not strings
    pruned = [v for v in full if v != (0, 0, -1, 1, 1, 0)]
    r = check_cone(q.diagram, word, pruned, 2)
    assert not r.passed
    assert r.witness == [
        ("cone_only", (0, 0, 1, 0, 0, 0)),
        ("cone_only", (0, 0, 1, 0, 0, 1)),
        ("cone_only", (0, 0, 1, 0, 0, 2)),
    ]


def test_cone_witness_tags_name_the_failing_comparison(a3):
    # an extra inequality a_1 <= 0 cuts generated strings out of the cone; the
    # second comparison's tag is test_cone_not_lowered_points_become_sorted_witnesses'
    q, word = a3
    normals = gp_cone(build_wiring(word, 3))
    cut = check_cone(q.diagram, word, normals | {(-1, 0, 0, 0, 0, 0)}, 1)
    assert cut.witness == [
        ("generated_only", (1, 0, 1, 0, 1, 0)),
        ("generated_only", (1, 0, 1, 0, 1, 1)),
        ("generated_only", (1, 0, 1, 1, 1, 0)),
    ]
    # the kernels give point codes, and the witnesses come sorted by point,
    # not by code
    assert [point_code(a, 1) for _, a in cut.witness] == [21, 53, 29]


def test_cone_not_lowered_points_become_sorted_witnesses(monkeypatch, a3):
    # closure points that fail the lowering certificate fail the second
    # comparison, under a tag of its own: as NotLowered carries them, in point
    # order (not code order), the first three as the witness, and only once
    # the cone and the closure agree
    q, word = a3
    normals = gp_cone(build_wiring(word, 3))
    codes = generate_strings(q.diagram, word, 1)
    failing = points(sorted(codes, reverse=True)[:4], len(word), 1)
    raised = []

    def certified(*args):
        raised.append(NotLowered(generate_strings(*args), failing))
        raise raised[-1]

    monkeypatch.setattr(verify.strings, "generate_strings", certified)
    r = check_cone(q.diagram, word, normals, 1)
    assert not r.passed
    assert r.witness == [("cone_not_lowered", a) for a in sorted(failing)[:3]]
    assert [point_code(a, 1) for _, a in r.witness] != sorted(point_code(a, 1) for a in failing)[:3]
    [exc] = raised
    assert isinstance(exc, InvariantViolation)
    assert exc.codes == codes and exc.witness == exc.points == failing
    cut = check_cone(q.diagram, word, normals | {(-1, 0, 0, 0, 0, 0)}, 1)
    assert [tag for tag, _ in cut.witness] == ["generated_only"] * 3


def test_theorem_witness_tags_name_each_side(monkeypatch, a3):
    original = verify.wiring.gp_cone
    extra, dropped = (1, 1, 1, 1, 1, 1), (0, 0, -1, 1, 1, 0)
    monkeypatch.setattr(verify.wiring, "gp_cone", lambda wd, typed: original(wd) | {extra})
    assert check_theorem_2_4(*a3).witness == [("paths_only", extra)]
    monkeypatch.setattr(verify.wiring, "gp_cone", lambda wd, typed: original(wd) - {dropped})
    assert check_theorem_2_4(*a3).witness == [("moves_only", dropped)]


def test_cone_refuses_a_normal_of_the_wrong_length_before_any_report(monkeypatch, a3):
    q, word = a3
    made = []
    monkeypatch.setattr(verify, "_report", lambda *args: made.append(args))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_cone(q.diagram, word, [(1, 0, 0)], 1)
    assert made == []


def test_negative_box_reports_pass(a2):
    # [0..box]^N has no points, so every side of the cone comparison is empty
    q, word = a2
    assert check_cone(q.diagram, word, move_vectors(build_ar(q, word)), -1).passed
    assert check_conjecture(q, box=-1).passed


def test_conjecture_d4(d4):
    r = check_conjecture(*d4, box=1)
    assert r.passed
    assert r.check == "moves_define_cone_box1"


def test_conjecture_d5():
    # box volume 2**20: the oracle's strings are compared with the cone over
    # the whole box, so every non-string of the box must be rejected too
    r = check_conjecture(parse_quiver("1>3,2>3,3>4,4>5"), box=1)
    assert r.passed, r.witness
    assert r.check == "moves_define_cone_box1"


def test_conjecture_rejects_failing_orientation():
    q = parse_quiver("3>1,3>2,3>4")
    with pytest.raises(ConditionLFails):
        check_conjecture(q, box=1)


def test_conjecture_matches_cone_verdict_on_type_a(a3):
    q, word = a3
    wd = build_wiring(word, 3)
    via_moves = check_conjecture(q, word, box=2)
    via_paths = check_cone(q.diagram, word, gp_cone(wd), 2)
    assert via_moves.passed == via_paths.passed


def test_conjecture_every_multiplicity_one_branch_orientation():
    from stringcone.arquiver import build_ar
    from stringcone.cartan import d_diagram
    from stringcone.quiver import all_orientations, condition_L

    for q in all_orientations(d_diagram(4)):
        if condition_L(build_ar(q)):
            assert check_conjecture(q, box=1).passed


def _adapted_words(q, limit):
    from stringcone.cartan import cartan_matrix, num_positive_roots, simple_root
    from reference import is_sink, reflect_sink

    d = q.diagram
    cm = cartan_matrix(d)
    n_pos = num_positive_roots(d)
    out = []

    def extend(word, cur, images):
        if len(out) == limit:
            return
        if len(word) == n_pos:
            out.append(tuple(word))
            return
        for i in range(1, d.n + 1):
            if is_sink(cur, i) and all(x >= 0 for x in images[i - 1]):
                base = images[i - 1]
                nxt = [
                    tuple(-x for x in base)
                    if j == i - 1
                    else tuple(x - cm[i - 1][j] * y for x, y in zip(img, base))
                    for j, img in enumerate(images)
                ]
                extend(word + [i], reflect_sink(cur, i), nxt)

    extend([], q, [simple_root(d, j) for j in range(1, d.n + 1)])
    return out


def test_non_canonical_adapted_words(a3, d4):
    # every adapted word, not just the greedy one, satisfies the suite
    q3, _ = a3
    for word in _adapted_words(q3, limit=10):
        assert check_theorem_2_4(q3, word, strict=True).passed
        assert all(r.passed for r in structural_reports(q3, word))
    q4, _ = d4
    for word in _adapted_words(q4, limit=4):
        assert all(r.passed for r in structural_reports(q4, word))


def test_cone_holds_for_non_adapted_words():
    # the path-cone description is not restricted to adapted words
    from stringcone.cartan import path_diagram, simple_root, weyl_act

    d = path_diagram(3)
    words = []

    def extend(prefix):
        if len(prefix) == 6:
            words.append(tuple(prefix))
            return
        for i in (1, 2, 3):
            if all(x >= 0 for x in weyl_act(d, prefix, simple_root(d, i))):
                extend(prefix + [i])

    extend([])
    assert len(words) == 16
    for word in words:
        wd = build_wiring(word, 3)
        assert check_cone(d, word, gp_cone(wd), 2).passed


def test_structural_reports_clean_instances(a3, d4):
    for q, word in (a3, d4):
        reports = structural_reports(q, word)
        assert reports and all(r.passed for r in reports)


def test_move_weight_increment_reads_every_move(monkeypatch):
    # A4 1>2,2>3,3>4: no vertex of the depth-3 crystal raises through the type-1
    # antichain (4,), so only a check of every move vector sees its move corrupted
    q = parse_quiver("1>2,2>3,3>4")
    ar = build_ar(q)
    table = lusztig._table(ar, 1)
    target = lusztig.Antichain(1, (4,))
    entry = table.entries[target]
    bad = entry._replace(move=(entry.move[0] + 1,) + entry.move[1:])
    entries = {a: bad if a == target else e for a, e in table.rows}
    ar.cache[("antichains", 1)] = table._replace(
        entries=MappingProxyType(entries), rows=tuple(entries.items())
    )
    monkeypatch.setattr(verify.arquiver, "build_ar", lambda *args: ar)
    reports = {r.check: r for r in structural_reports(q)}
    increment = reports["move_weight_increment"]
    assert not increment.passed
    assert increment.witness == [(1, (4,))]


def test_mesh_relation_catches_a_shifted_translation(monkeypatch):
    # A4 1>2,3>2,3>4 with every translate after position 1 moved one step
    # back: the roots at 6-10 and their new translates no longer sum to the
    # middle terms, and the sweep itself completes
    q = parse_quiver("1>2,3>2,3>4")
    ar = build_ar(q)
    assert ar.tau == {5: 1, 6: 2, 7: 3, 8: 4, 9: 5, 10: 7}
    tau = {k: t - 1 if t > 1 else t for k, t in ar.tau.items()}
    shifted = ar._replace(tau=tau)
    monkeypatch.setattr(verify.arquiver, "build_ar", lambda *args: shifted)
    reports = {r.check: r for r in structural_reports(q)}
    mesh = reports["mesh_relation"]
    assert not mesh.passed
    assert mesh.witness == [6, 7, 8]


@pytest.mark.parametrize("spec, count", [("2>1,2>3", 31), ("4>3,3>1,3>2", 7)])
def test_a_raising_check_fails_under_its_own_name(monkeypatch, spec, count):
    # on A3 and D4 the same shift makes raising a u-vector leave the quiver's
    # multiplicities: the raising_witness check raises, and the sweep still
    # makes every report of a clean instance, that one failing with the fault
    q = parse_quiver(spec)
    ar = build_ar(q)
    tau = {k: t - 1 if t > 1 else t for k, t in ar.tau.items()}
    shifted = ar._replace(tau=tau)
    monkeypatch.setattr(verify.arquiver, "build_ar", lambda *args: shifted)
    reports = structural_reports(q)
    assert len(reports) == count
    failed = {r.check: r.witness for r in reports if not r.passed}
    assert {"translation_is_coxeter", "mesh_relation", "move_weight_increment"} <= set(failed)
    ((kind, exc, message, witness),) = failed["raising_witness"]
    assert (kind, exc, message) == (
        "internal_fault", "InvariantViolation", "raising gave a negative multiplicity"
    )
    assert witness.startswith("{'type': ")


def test_a_broken_move_table_fails_its_reports_and_the_sweep_completes(monkeypatch):
    # A4 2>1,2>3,4>3 with 5 <= 8 cut out of the down-set of 8: the move table
    # of type 4 raises, and each report that reads it fails under its own name
    # while the sweep makes every other report
    original = verify.arquiver.build_ar

    def build(q, word=None):
        ar = original(q, word)
        if q.arrows != ((2, 1), (2, 3), (4, 3)):
            return ar
        down = list(ar.down)
        down[7] &= ~(1 << 5)
        broken = ar._replace(down=tuple(down))
        broken.cache["hom"] = ar.hom_table()
        return broken

    monkeypatch.setattr(verify.arquiver, "build_ar", build)
    summary = run_suite(4, 0)
    assert len(summary.reports) == 523
    failed = {r.check: r.witness for r in summary.failures}
    instance = "quiver 2>1,2>3,4>3 word 1,3,2,1,4,3,2,1,4,3"
    assert {r.instance for r in summary.failures} == {instance}
    assert set(failed) == {
        "moves_equal_path_cone", "string_cone_box0", "move_weight_increment",
        "raising_witness", "grid_order_type4", "path_antichain_bijection_type4",
    }
    for name in ("moves_equal_path_cone", "string_cone_box0"):
        ((kind, exc, message, witness),) = failed[name]
        assert (kind, exc) == ("internal_fault", "InvariantViolation")
        assert message == "ideal minus a maximal element is no antichain's ideal"
        assert witness == "{'type': 4, 'antichain': (8,), 'removed': 8}"


def test_limiting_path_reports_its_crossings(monkeypatch, a3):
    # a refused limiting path is reported by its crossings, not by None
    monkeypatch.setattr(verify.wiring, "is_gp_path", lambda wd, path: False)
    reports = {r.check: r for r in structural_reports(*a3)}
    assert not reports["limiting_path_type1"].passed
    assert reports["limiting_path_type1"].witness == [(1,)]
    assert reports["limiting_path_type2"].witness == [(2, 5, 6, 4, 1)]


def _witnesses(q, word):
    return {r.check: r.witness for r in structural_reports(q, word)}


def test_level_endpoints_report_a_missing_level(monkeypatch, a3):
    # a level with no position is reported, and its endpoints are not read
    original = ARQuiver.level_positions
    monkeypatch.setattr(
        ARQuiver, "level_positions", lambda ar, i: () if i == 2 else original(ar, i)
    )
    assert _witnesses(*a3)["level_endpoints"] == [("missing-level", 2)]


@pytest.mark.parametrize("reader, vertex, witness", [
    ("projective_dimension_vector", 2, ("projective", 2)),
    # the last position of level i carries the injective at the w0-image of i
    ("injective_dimension_vector", 1, ("injective", 3)),
])
def test_level_endpoints_report_a_wrong_end(monkeypatch, a3, reader, vertex, witness):
    original = getattr(verify.arquiver, reader)
    monkeypatch.setattr(
        verify.arquiver, reader,
        lambda q, i: (0,) * q.diagram.n if i == vertex else original(q, i),
    )
    assert _witnesses(*a3)["level_endpoints"] == [witness]


def _shifted(original, k, j):
    """`original` with coordinate j of its value at crossing k raised by one."""
    def reader(wd, at):
        out = original(wd, at)
        return tuple(x + (at == k and t == j) for t, x in enumerate(out, start=1))

    return reader


@pytest.mark.parametrize("reader, tag", [("lambda_minus", "minus"), ("lambda_plus", "plus")])
def test_chamber_weights_report_each_side(monkeypatch, a3, reader, tag):
    monkeypatch.setattr(verify.wiring, reader, _shifted(getattr(verify.wiring, reader), 4, 1))
    assert _witnesses(*a3)["chamber_weights"] == [(tag, 4)]


def test_membership_pairing_reports_position_and_type(monkeypatch, a3):
    monkeypatch.setattr(verify.wiring, "lambda_minus", _shifted(verify.wiring.lambda_minus, 4, 2))
    assert _witnesses(*a3)["membership_pairing"] == [(4, 2)]


def test_path_antichain_bijection_reports_a_count_mismatch(monkeypatch, a3):
    # with the antichain (6,) of type 2 dropped, five paths meet four
    # antichains, and the path that turns at 6 rebuilds no listed antichain
    original = verify.lusztig.antichains
    monkeypatch.setattr(
        verify.lusztig, "antichains",
        lambda ar, i: original(ar, i)[:-1] if i == 2 else original(ar, i),
    )
    assert _witnesses(*a3)["path_antichain_bijection_type2"] == [
        ("count", 5, 4), ("roundtrip", (2, 5, 6, 4, 1))
    ]


def test_path_antichain_bijection_reports_a_broken_roundtrip(monkeypatch, a3):
    # the path that turns at 3 read as the antichain (4,): that antichain's
    # path is another one
    original = verify.wiring.path_antichain

    def path_antichain(wd, ar, path):
        a = original(wd, ar, path)
        return a._replace(positions=(4,)) if a == Antichain(2, (3,)) else a

    monkeypatch.setattr(verify.wiring, "path_antichain", path_antichain)
    assert _witnesses(*a3)["path_antichain_bijection_type2"] == [("roundtrip", (2, 3, 1))]


def test_suite_rank_two():
    summary = run_suite(2, 3)
    assert summary.ok
    # two orientations of the rank-two line plus the single-vertex case
    instances = {r.instance for r in summary.reports}
    assert len(instances) == 3


def test_suite_builds_each_instance_once(monkeypatch):
    # one translation quiver and one wiring diagram per orientation, and the
    # same reports, row for row, as the standalone checks on each orientation
    calls = {"build_ar": 0, "build_wiring": 0}
    for module, name in ((verify.arquiver, "build_ar"), (verify.wiring, "build_wiring")):
        original = getattr(module, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(module, name, counted)
    summary = run_suite(4, 0)
    monkeypatch.undo()
    orientations = [q for n in range(1, 5) for q in all_orientations(path_diagram(n))]
    assert len(orientations) == 15
    assert calls == {"build_ar": 15, "build_wiring": 15}
    expected = []
    for q in orientations:
        word = adapted_word(q)
        theorem = check_theorem_2_4(q, strict=True)
        cone = check_cone(q.diagram, word, move_vectors(build_ar(q, word)), 0)
        expected.append(theorem)
        expected.append(VerificationReport(theorem.instance, cone.check, cone.passed, cone.witness))
        expected.extend(structural_reports(q))
    assert summary.reports == expected


def test_suite_fills_each_hom_table_once(monkeypatch):
    # one map-to-simple dimension per (position, type) pair of each orientation:
    # 1 + 2*3*2 + 4*6*3 + 8*10*4 = 405 on ranks 1-4; every module binding of
    # hom_to_simple is counted, however it is imported
    original = quiver.hom_to_simple
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "stringcone":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    run_suite(4, 0)
    monkeypatch.undo()
    assert len(calls) == 405


def test_suite_rank_five_passes_and_rebuilds_each_path_once(monkeypatch):
    # 501 (orientation, antichain) pairs on ranks 1-5: the path/antichain check
    # rebuilds one path per antichain and reads the round trip from those
    original = verify.wiring.antichain_path
    calls = []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(verify.wiring, "antichain_path", counted)
    summary = run_suite(5, 0)
    monkeypatch.undo()
    assert summary.ok and len(summary.reports) == 1275
    pairs = [
        a
        for n in range(1, 6)
        for q in all_orientations(path_diagram(n))
        for i in range(1, n + 1)
        for a in antichains(build_ar(q), i)
    ]
    assert len(calls) == len(pairs) == 501


def test_each_cone_check_searches_its_box_once(kernel_calls):
    # the raising closure and the lowering certificate come from one search:
    # each of the 15 box-2 cone checks of ranks 1-4 calls generate_strings
    # once, and none calls the lowering filter's search
    assert run_suite(4, 2).ok
    assert kernel_calls == {"generate_strings": 15, "strings_in_box": 0}
    assert check_conjecture(parse_quiver("1>3,2>3,3>4,4>5"), box=1).passed
    assert kernel_calls == {"generate_strings": 16, "strings_in_box": 0}


def test_paths_enumerated_once_per_type():
    wd = build_wiring(adapted_word(parse_quiver("1>2,3>2,3>4")), 4)
    for i in range(1, 5):
        assert gp_paths(wd, i) is gp_paths(wd, i)
        assert zones(wd, i) is zones(wd, i)


def test_suite_trivial_rank():
    assert run_suite(1, 2).ok


def test_reports_are_deterministic():
    a = run_suite(2, 2)
    b = run_suite(2, 2)
    assert [r.as_json() for r in a.reports] == [r.as_json() for r in b.reports]
    payload = json.dumps(a.as_json(), sort_keys=True)
    assert payload == json.dumps(b.as_json(), sort_keys=True)


@pytest.mark.parametrize(
    "max_rank, box, digest",
    [
        (7, 0, "6cc5b0b06f15ac279e00a792b86a2944b145c67cb063294e15f3d19daf9408ad"),
        (4, 2, "eb2b96a43345064d2165c84629a75ee5dee8f2452fc542e4a61af1be9279c423"),
    ],
    ids=["rank7-box0", "rank4-box2"],  # a re-pinned digest keeps its test id
)
def test_report_reprs_are_pinned(max_rank, box, digest):
    # every report of the sweep, in order and with its witness, not only the
    # one-line summary that the CLI prints
    reports = run_suite(max_rank, box).reports
    assert hashlib.sha256(repr(reports).encode()).hexdigest() == digest


def test_report_json_schema(a3):
    r = check_theorem_2_4(*a3)
    blob = r.as_json()
    assert set(blob) == {"instance", "check", "pass", "witness"}
    assert blob["pass"] is True
