from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from stringcone.cartan import cartan_matrix, d_diagram, path_diagram
from stringcone.lusztig import lusztig_crystal, lusztig_weight, move_vectors
from stringcone.arquiver import build_ar
from stringcone.quiver import adapted_word, all_orientations, condition_L, parse_quiver
from stringcone.strings import (
    LetterAbsent,
    cone_points_pruned,
    generate_strings,
    in_cone,
    inequalities_json,
    is_string,
    pretty_inequality,
    string_crystal,
    string_e,
    string_f,
    string_r,
    strings_in_box,
)

from reference import cone_points, same_labelled_graph, string_weight

D2 = path_diagram(2)
W2 = (1, 2, 1)


def test_r_vector_examples():
    assert string_r(D2, W2, (0, 0, 0)) == (0, 0, 0)
    assert string_r(D2, W2, (1, 1, 0)) == (1, 0, 1)
    assert string_r(D2, W2, (0, 1, 0)) == (0, 1, -1)


@pytest.mark.parametrize("spec", ["2>1,2>3", "4>3,3>1,3>2"])
@given(data=st.data())
@settings(deadline=None, max_examples=30)
def test_r_vector_matches_formula(spec, data):
    q = parse_quiver(spec)
    d, word = q.diagram, adapted_word(q)
    cm = cartan_matrix(d)
    a = data.draw(st.tuples(*[st.integers(-3, 5) for _ in word]))
    expected = tuple(
        a[k] + sum(cm[word[j] - 1][word[k] - 1] * a[j] for j in range(k))
        for k in range(len(word))
    )
    assert string_r(d, word, a) == expected


def test_raising_ties_break_at_last_position():
    assert string_e(D2, W2, 1, (0, 0, 0)) == (0, 0, 1)
    assert string_e(D2, W2, 2, (0, 0, 0)) == (0, 1, 0)


def test_lowering_kills_zero():
    assert string_f(D2, W2, 1, (0, 0, 0)) is None
    assert string_f(D2, W2, 2, (0, 0, 0)) is None


def test_letter_absent():
    with pytest.raises(LetterAbsent):
        string_e(D2, (1, 2, 1), 3, (0, 0, 0))
    with pytest.raises(LetterAbsent):
        string_f(D2, (1, 2, 1), 3, (0, 0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda a: string_r(D2, W2, a),
        lambda a: string_e(D2, W2, 2, a),
        lambda a: string_f(D2, W2, 1, a),
        lambda a: is_string(D2, W2, a),
    ],
    ids=["string_r", "string_e", "string_f", "is_string"],
)
@pytest.mark.parametrize("a", [(), (1, 0), (0, 0), (0, 0, 0, 0), (-1, 0)])
def test_string_side_rejects_wrong_length_vectors(call, a):
    # every reader of a string vector refuses one not of the word's length
    with pytest.raises(ValueError, match=f"has {len(a)} entries"):
        call(a)


def test_membership_examples():
    assert not is_string(D2, W2, (1, 0, 0))
    assert not is_string(D2, W2, (-1, 1, 0))  # a negative entry
    assert is_string(D2, W2, (1, 1, 0))
    for m in range(3):
        assert is_string(D2, W2, (0, 0, m))


def test_generate_strings_box_two_is_the_known_cone():
    got = generate_strings(D2, W2, 2)
    expected = {
        (a1, a2, a3)
        for a1 in range(3)
        for a2 in range(3)
        for a3 in range(3)
        if a1 <= a2
    }
    assert got == frozenset(expected)
    assert len(got) == 18


def test_generate_strings_box_zero():
    assert generate_strings(D2, W2, 0) == frozenset({(0, 0, 0)})


def test_box_filter_matches_generation_a3(a3):
    q, word = a3
    d = q.diagram
    assert strings_in_box(d, word, 1) == generate_strings(d, word, 1)
    ar = build_ar(q)
    normals = move_vectors(ar)
    box_points = frozenset(
        a for a in product(range(2), repeat=6) if in_cone(a, normals)
    )
    assert generate_strings(d, word, 1) == box_points


@pytest.mark.parametrize("n", range(1, 5))
def test_oracle_agreement_type_a(n):
    d = path_diagram(n)
    box = 3 if n <= 3 else 2
    for q in all_orientations(d):
        word = adapted_word(q)
        generated = generate_strings(d, word, box)
        assert strings_in_box(d, word, box) == generated
        if (box + 1) ** len(word) <= 5000:
            naive = frozenset(
                a
                for a in product(range(box + 1), repeat=len(word))
                if is_string(d, word, a)
            )
            assert naive == generated


def test_strings_in_box_total_over_type_a_ranks_one_to_four():
    # the number of strings that the box-2 sweep of ranks 1-4 compares
    total = sum(
        len(strings_in_box(path_diagram(n), adapted_word(q), 2))
        for n in range(1, 5)
        for q in all_orientations(path_diagram(n))
    )
    assert total == 20760


def test_oracle_agreement_d4(d4):
    q, word = d4
    d = q.diagram
    for box in (1, 2, 3):
        assert strings_in_box(d, word, box) == generate_strings(d, word, box)


def test_point_oracle_matches_box_scan_d4(d4):
    q, word = d4
    d = q.diagram
    per_point = frozenset(a for a in product(range(2), repeat=len(word)) if is_string(d, word, a))
    assert len(per_point) < 2 ** len(word)
    assert per_point == strings_in_box(d, word, 1)


@pytest.mark.parametrize("n, box", [(n, box) for n in (1, 2, 3) for box in (3, 4)])
def test_kernels_where_code_digits_carry_type_a(n, box):
    # past box 1 a point's integer code carries from one digit to the next;
    # the box scans by is_string stop at rank 2: rank 3 at box 3 is scanned by
    # test_oracle_agreement_type_a, and at box 4 its four 5^6-point boxes
    # take about 24 s, so there the full cone scan pins every point
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        generated = generate_strings(d, word, box)
        assert strings_in_box(d, word, box) == generated
        normals = move_vectors(build_ar(q))
        cone = cone_points(normals, box, len(word))
        assert cone_points_pruned(normals, box, len(word)) == cone == generated
        if n <= 2:
            box_points = product(range(box + 1), repeat=len(word))
            assert frozenset(a for a in box_points if is_string(d, word, a)) == generated


def test_kernels_where_code_digits_carry_d4(d4):
    # 3^12 points at box 2: the full cone scan pins every one of them, where
    # an is_string scan would take minutes (test_point_oracle_matches_box_scan_d4
    # runs that scan at box 1)
    q, word = d4
    d = q.diagram
    generated = generate_strings(d, word, 2)
    assert strings_in_box(d, word, 2) == generated
    normals = move_vectors(build_ar(q))
    cone = cone_points(normals, 2, len(word))
    assert cone_points_pruned(normals, 2, len(word)) == cone == generated


def test_every_generated_vertex_is_a_string(a3):
    q, word = a3
    d = q.diagram
    for a in sorted(generate_strings(d, word, 2)):
        assert is_string(d, word, a)


@given(st.lists(st.integers(1, 3), min_size=0, max_size=8))
@settings(deadline=None)
def test_raise_then_lower_roundtrip(seq):
    d = path_diagram(3)
    word = (1, 3, 2, 1, 3, 2)
    a = (0,) * 6
    for i in seq:
        up = string_e(d, word, i, a)
        assert string_f(d, word, i, up) == a
        a = up
    assert is_string(d, word, a)
    for i in (1, 2, 3):
        down = string_f(d, word, i, a)
        if down is not None:
            assert is_string(d, word, down)
            assert string_e(d, word, i, down) == a


def test_lower_then_raise_d4(d4):
    # wherever f is defined on a string, it lands on a string and e undoes it
    q, word = d4
    d = q.diagram
    generated = generate_strings(d, word, 2)
    lowered = 0
    for a in sorted(generated):
        for i in range(1, d.n + 1):
            down = string_f(d, word, i, a)
            if down is not None:
                lowered += 1
                assert down in generated
                assert string_e(d, word, i, down) == a
    assert lowered > len(generated)


def test_weight_increment(a3):
    q, word = a3
    d = q.diagram
    for a in sorted(generate_strings(d, word, 1)):
        for i in (1, 2, 3):
            up = string_e(d, word, i, a)
            diff = tuple(
                x - y for x, y in zip(string_weight(d, word, up), string_weight(d, word, a))
            )
            assert diff == tuple(1 if j == i - 1 else 0 for j in range(3))


def test_in_cone_examples():
    K = [(1, 0, 0), (-1, 1, 0), (0, 0, 1)]
    assert in_cone((1, 2, 0), K)
    assert not in_cone((1, 0, 0), K)
    assert cone_points([], 1, 3) == frozenset(product(range(2), repeat=3))
    with pytest.raises(ValueError):
        in_cone((1, 0), K)
    with pytest.raises(ValueError, match="dimension mismatch"):
        cone_points_pruned([(1, 0, 0), (1, 0)], 1, 3)


@given(st.data())
@settings(deadline=None, max_examples=40)
def test_pruned_scan_matches_naive(data):
    dim = data.draw(st.integers(2, 4))
    box = data.draw(st.integers(0, 3))
    normals = data.draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2) for _ in range(dim)]),
            min_size=0,
            max_size=4,
        )
    )
    assert cone_points_pruned(normals, box, dim) == cone_points(normals, box, dim)


SMALL_2D = list(product(range(-3, 4), repeat=2))


@pytest.mark.parametrize(
    "normal_sets, dim",
    [
        ([[v] for v in SMALL_2D], 2),
        ([[v, w] for v in SMALL_2D for w in SMALL_2D], 2),
        ([[v] for v in product(range(-2, 3), repeat=3)], 3),
    ],
    ids=["one-normal-2d", "two-normals-2d", "one-normal-3d"],
)
def test_pruned_bounds_match_naive_exhaustively(normal_sets, dim):
    # every small coefficient pattern, so each sign and remainder of the
    # per-coordinate ceiling and floor bounds is met at every box size
    for box in range(4):
        for normals in normal_sets:
            assert cone_points_pruned(normals, box, dim) == cone_points(normals, box, dim), (
                normals,
                box,
            )


def test_pretty_forms():
    assert pretty_inequality((0, 0, 0, 1, 1, 0, -1)) == "t4+t5-t7>=0"
    assert pretty_inequality((1, 0, 0)) == "t1>=0"
    assert pretty_inequality((-1, 0, 2)) == "2t3-t1>=0"
    assert pretty_inequality((0, 0)) == "0>=0"


def test_inequalities_json_shape():
    rows = inequalities_json([(2, (0, -1, 0, 1, 0, 0))])
    assert rows == [{"type": 2, "normal": [0, -1, 0, 1, 0, 0], "pretty": "t4-t2>=0"}]


def test_string_crystal_matches_move_crystal_shape(a3):
    q, word = a3
    d = q.diagram
    ar = build_ar(q)
    for depth in (3, 6):
        g_string = string_crystal(d, word, depth)
        g_move = lusztig_crystal(ar, depth)
        assert same_labelled_graph(g_string, g_move)


@pytest.mark.parametrize(
    "d, expected",
    [(path_diagram(n), 2 ** (n - 1)) for n in range(1, 6)]
    + [(d_diagram(4), 7), (d_diagram(5), 10)],
    ids=[f"A{n}" for n in range(1, 6)] + ["D4", "D5"],
)
def test_depth_three_move_crystal_matches_string_crystal(d, expected):
    # the depth-3 ball of the move route on every condition-L orientation: each
    # edge adds the simple root of its label, and the ball is the string
    # route's, label for label
    checked = 0
    for q in all_orientations(d):
        word = adapted_word(q)
        ar = build_ar(q, word)
        if not condition_L(ar):
            continue
        g_move = lusztig_crystal(ar, 3)
        for v, i, w in g_move.edges:
            diff = tuple(b - a for a, b in zip(lusztig_weight(ar, v), lusztig_weight(ar, w)))
            assert diff == tuple(1 if j == i - 1 else 0 for j in range(d.n))
        assert same_labelled_graph(g_move, string_crystal(d, word, 3))
        checked += 1
    assert checked == expected


def test_string_crystal_d4(d4):
    q, word = d4
    graph = string_crystal(q.diagram, word, 3)
    assert (0,) * 12 in graph.vertices
    for v, i, w in graph.edges:
        assert sum(w) == sum(v) + 1
