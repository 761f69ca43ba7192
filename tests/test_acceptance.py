"""Acceptance suite: every criterion is exact integer equality, no tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import contextlib
from stringcone.arquiver import build_ar
from stringcone.cartan import d_diagram, path_diagram
from stringcone.lusztig import (
    antichains,
    f_value,
    lusztig_crystal,
    lusztig_e,
    lusztig_weight,
    move,
    move_vectors,
    u_vector,
)
from stringcone.quiver import adapted_word, all_orientations, condition_L, parse_quiver
from stringcone.strings import (
    generate_strings,
    is_string,
    points,
    pretty_inequality,
    string_crystal,
    string_e,
    string_f,
)
from stringcone.verify import (
    check_cone,
    check_conjecture,
    check_theorem_2_4,
    structural_reports,
)
from stringcone.wiring import antichain_path, build_wiring, gp_cone, gp_paths, k_vector

from reference import same_labelled_graph, string_weight


@contextlib.contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    print(f"criterion {number}: PASS - {description}")


def test_criterion_1_rank_two_golden():
    with criterion(1, "rank-two moves, path cone, and box-3 string set"):
        q = parse_quiver("2>1")
        word = (1, 2, 1)
        golden = frozenset({(1, 0, 0), (-1, 1, 0), (0, 0, 1)})
        assert move_vectors(build_ar(q, word)) == golden
        assert gp_cone(build_wiring(word, 2)) == golden
        expected = frozenset(
            (a1, a2, a3)
            for a1 in range(4)
            for a2 in range(4)
            for a3 in range(4)
            if a1 <= a2
        )
        assert frozenset(points(generate_strings(q.diagram, word, 3), 3, 3)) == expected


def test_criterion_2_rank_three_golden():
    with criterion(2, "rank-three antichain table, ladder values, raising step"):
        q = parse_quiver("2>1,2>3")
        ar = build_ar(q, (1, 3, 2, 1, 3, 2))
        assert ar.p_set(2) == (3, 4, 5, 6)
        chains = antichains(ar, 2)
        assert [a.positions for a in chains] == [(3,), (4,), (5,), (4, 5), (6,)]
        assert [move(ar, a) for a in chains] == [
            (-1, -1, 1, 0, 0, 0),
            (0, -1, 0, 1, 0, 0),
            (-1, 0, 0, 0, 1, 0),
            (0, 0, -1, 1, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ]
        t = (3, 2, 1, 1, 2, 0)
        # fifth ladder sum: (t4-t1) + (t5-t2) + t6 = -2 + 0 + 0
        assert [f_value(ar, a, t) for a in chains] == [1, -1, 1, -1, -2]
        assert lusztig_e(ar, 2, t) == (2, 2, 1, 1, 3, 0)


def test_criterion_3_path_enumeration_golden():
    with criterion(3, "five type-two paths with the table contribution vectors"):
        q = parse_quiver("2>1,2>3")
        word = (1, 3, 2, 1, 3, 2)
        wd = build_wiring(word, 3)
        paths = gp_paths(wd, 2)
        assert len(paths) == 5
        example = [p for p in paths if p.crossings == (2, 5, 3, 4, 1)]
        assert len(example) == 1
        assert k_vector(wd, example[0]) == (0, 0, -1, 1, 1, 0)
        ar = build_ar(q, word)
        assert {k_vector(wd, p) for p in paths} == {
            move(ar, a) for a in antichains(ar, 2)
        }


def test_criterion_4_move_sets_equal_path_cones():
    with criterion(4, "move set equals path cone on every orientation, ranks 2-5"):
        for n in range(2, 6):
            for q in all_orientations(path_diagram(n)):
                report = check_theorem_2_4(q, strict=True)
                assert report.passed, (report.instance, report.witness)


def test_criterion_5_cone_sweep():
    with criterion(5, "box string sets equal cone points, ranks 2-4"):
        for n, box in ((2, 3), (3, 3), (4, 2)):
            for q in all_orientations(path_diagram(n)):
                word = adapted_word(q)
                wd = build_wiring(word, n)
                report = check_cone(q.diagram, word, gp_cone(wd), box)
                assert report.passed, (report.instance, report.witness)


D4_TABLE = [
    (1, "t1>=0"),
    (2, "t2>=0"),
    (3, "t3-t1-t2>=0"),
    (3, "t4-t2>=0"),
    (3, "t5-t1>=0"),
    (3, "t4+t5-t3>=0"),
    (3, "t7-t6>=0"),
    (3, "t10>=0"),
    (4, "t6-t3>=0"),
    (4, "t7-t4-t5>=0"),
    (4, "t8-t5>=0"),
    (4, "t9-t4>=0"),
    (4, "t8+t9-t7>=0"),
    (4, "t11-t10>=0"),
    (4, "t12>=0"),
]


def test_criterion_6_rank_four_branch_instance():
    with criterion(6, "branch-quiver inequality table and box-2 cone equality"):
        q = parse_quiver("4>3,3>1,3>2")
        word = adapted_word(q)
        assert word == (1, 2, 3, 1, 2, 4, 3, 1, 2, 4, 3, 4)
        ar = build_ar(q, word)
        assert [len(antichains(ar, i)) for i in range(1, 5)] == [1, 1, 6, 7]
        assert ar.p_set(3) == (3, 4, 5, 7, 10)
        assert ar.p_set(4) == (6, 7, 8, 9, 11, 12)
        table = [
            (i, pretty_inequality(move(ar, a)))
            for i in range(1, 5)
            for a in antichains(ar, i)
        ]
        assert table == D4_TABLE
        report = check_conjecture(q, word, box=2)
        assert report.passed, report.witness


def test_criterion_7_structural_sweeps():
    with criterion(7, "structural properties on all orientations up to rank 6"):
        diagrams = [path_diagram(n) for n in range(1, 7)]
        diagrams += [d_diagram(n) for n in (4, 5, 6)]
        failures = []
        for d in diagrams:
            for q in all_orientations(d):
                for r in structural_reports(q):
                    if not r.passed:
                        failures.append((r.instance, r.check, r.witness))
        assert not failures, failures[:5]


def test_criterion_8_crystal_consistency():
    with criterion(8, "weight steps, raising witnesses, inversion, path moves"):
        # weight increments to depth six in both parametrizations
        for spec in ("2>1", "2>1,2>3"):
            q = parse_quiver(spec)
            word = adapted_word(q)
            ar = build_ar(q, word)
            d = q.diagram
            n = d.n
            move_graph = lusztig_crystal(ar, 6)
            for v, i, w in move_graph.edges:
                diff = tuple(
                    b - a
                    for a, b in zip(lusztig_weight(ar, v), lusztig_weight(ar, w))
                )
                assert diff == tuple(1 if j == i - 1 else 0 for j in range(n))
            string_graph = string_crystal(d, word, 6)
            for v, i, w in string_graph.edges:
                diff = tuple(
                    b - a
                    for a, b in zip(string_weight(d, word, v), string_weight(d, word, w))
                )
                assert diff == tuple(1 if j == i - 1 else 0 for j in range(n))
            # the two parametrizations generate the same labelled graph
            assert same_labelled_graph(move_graph, string_graph)
            # lowering inverts raising on every generated string parameter
            for a in points(generate_strings(d, word, 2), len(word), 2):
                for i in range(1, n + 1):
                    up = string_e(d, word, i, a)
                    assert string_f(d, word, i, up) == a
                    down = string_f(d, word, i, a)
                    if down is not None:
                        assert is_string(d, word, down)
                        assert string_e(d, word, i, down) == a

        # raising witnesses for every antichain, ranks 2-5 and the branch quiver
        instances = [
            q for n in range(2, 6) for q in all_orientations(path_diagram(n))
        ]
        instances += [
            q for q in all_orientations(d_diagram(4)) if condition_L(build_ar(q))
        ]
        for q in instances:
            ar = build_ar(q)
            for i in range(1, q.diagram.n + 1):
                for a in antichains(ar, i):
                    t_u = u_vector(ar, a)
                    assert lusztig_e(ar, i, t_u) == tuple(
                        x + m for x, m in zip(t_u, move(ar, a))
                    )

        # reconstructed paths realize the moves, every antichain, ranks 2-5
        for n in range(2, 6):
            for q in all_orientations(path_diagram(n)):
                word = adapted_word(q)
                ar = build_ar(q, word)
                wd = build_wiring(word, n)
                for i in range(1, n + 1):
                    chains = antichains(ar, i)
                    assert len(gp_paths(wd, i)) == len(chains)
                    for a in chains:
                        path = antichain_path(wd, ar, a)
                        assert k_vector(wd, path) == move(ar, a)
