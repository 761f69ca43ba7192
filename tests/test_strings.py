import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from stringcone.cartan import cartan_matrix, d_diagram, path_diagram
from stringcone.lusztig import lusztig_crystal, lusztig_weight, move_vectors
from stringcone.arquiver import build_ar
from stringcone.verify import check_cone
from stringcone.quiver import (
    adapted_word,
    all_orientations,
    condition_L,
    parse_quiver,
    quiver_spec,
)
from stringcone import strings
from stringcone.strings import (
    LetterAbsent,
    NotLowered,
    _layout,
    cone_points_pruned,
    generate_strings,
    in_cone,
    inequalities_json,
    is_string,
    points,
    pretty_inequality,
    string_crystal,
    string_e,
    string_f,
    string_r,
    strings_in_box,
)

from reference import (
    cone_points,
    lowers_to_zero,
    not_lowered,
    point_code,
    raising_closure,
    same_labelled_graph,
    string_weight,
)

D2 = path_diagram(2)
W2 = (1, 2, 1)


# the three box kernels give point codes; these decode them to points


def generated_points(d, word, box):
    return frozenset(points(generate_strings(d, word, box), len(word), box))


def filtered_points(d, word, box):
    return frozenset(points(strings_in_box(d, word, box), len(word), box))


def pruned_points(normals, box, dim):
    return frozenset(points(cone_points_pruned(normals, box, dim), dim, box))


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


def test_membership_far_from_zero_at_the_default_recursion_limit():
    # each lowering step is one step of the search, not one stack frame, so
    # points whose entries sum to thousands are answered like small ones
    assert sys.getrecursionlimit() <= 1000
    assert is_string(path_diagram(1), (1,), (5000,))
    normals = move_vectors(build_ar(parse_quiver("2>1"), W2))
    points = [(0, 3000, 3000), (1, 3000, 3000), (3000, 3000, 0), (3000, 0, 3000)]
    assert [is_string(D2, W2, a) for a in points] == [True, True, True, False]
    assert [in_cone(a, normals) for a in points] == [True, True, True, False]


@pytest.mark.parametrize("spec", ["2>1", "4>3,3>1,3>2"])
def test_kernels_agree_that_a_negative_box_has_no_points(spec):
    q = parse_quiver(spec)
    word = adapted_word(q)
    normals = move_vectors(build_ar(q, word))
    assert generate_strings(q.diagram, word, -1) == frozenset()
    assert strings_in_box(q.diagram, word, -1) == frozenset()
    assert cone_points_pruned(normals, -1, len(word)) == frozenset()
    assert points(frozenset(), len(word), -1) == []


@pytest.mark.parametrize("n, box", [(n, box) for n in range(5) for box in range(4)])
def test_points_inverts_the_code(n, box):
    # every point of the box, box 0 and codes whose digits carry included: the
    # codes are 0..(box+1)^n - 1, one per point, and each decodes to its point
    box_points = list(product(range(box + 1), repeat=n))
    codes = [point_code(a, box) for a in box_points]
    assert sorted(codes) == list(range((box + 1) ** n))
    for a, code in zip(box_points, codes):
        assert points([code], n, box) == [a]
    # decoded points come sorted by point, whatever the order of the codes
    assert points(sorted(codes, key=lambda c: -c), n, box) == sorted(box_points)


# the last four: a negative box has no point, not even the origin
@pytest.mark.parametrize("code, n, box", [(-1, 4, 2), (81, 4, 2), (1, 3, 0),
                                          (0, 2, -1), (0, 2, -2), (0, 0, -1), (3, 1, -3)])
def test_points_refuses_a_code_outside_the_box(code, n, box):
    with pytest.raises(ValueError, match=f"code {code} is no point"):
        points([code], n, box)


def test_layout_is_built_once_per_diagram_and_word():
    # both box searches, and every point of an is_string scan, read one
    # layout; its parts are tuples, so no reader can change them
    assert _layout(path_diagram(2), (1, 2, 1)) is _layout(D2, W2)
    groups, rows = _layout(D2, W2)
    assert groups == ((0, 2), (1,))
    assert rows == (((1, -1), (2, 2)), ((2, -1),), ())


def test_generate_strings_box_two_is_the_known_cone():
    got = generated_points(D2, W2, 2)
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
    assert generated_points(D2, W2, 0) == frozenset({(0, 0, 0)})


@pytest.mark.parametrize("box", [0, -1])
def test_generate_strings_without_points_to_search_builds_no_layout(box):
    # box 0 has only zero and a negative box nothing, so neither reads the
    # layout: no lookup, hit or miss, of its cache
    q = parse_quiver("2>1,2>3,4>3,4>5,6>5,7>6")
    before = _layout.cache_info()
    generate_strings(q.diagram, adapted_word(q), box)
    after = _layout.cache_info()
    assert (after.hits, after.misses) == (before.hits, before.misses)


def test_box_filter_matches_generation_a3(a3):
    q, word = a3
    d = q.diagram
    assert filtered_points(d, word, 1) == generated_points(d, word, 1)
    ar = build_ar(q)
    normals = move_vectors(ar)
    box_points = frozenset(
        a for a in product(range(2), repeat=6) if in_cone(a, normals)
    )
    assert generated_points(d, word, 1) == box_points


@pytest.mark.parametrize("n", range(1, 5))
def test_oracle_agreement_type_a(n):
    d = path_diagram(n)
    box = 3 if n <= 3 else 2
    for q in all_orientations(d):
        word = adapted_word(q)
        generated = generated_points(d, word, box)
        assert filtered_points(d, word, box) == generated
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
        assert filtered_points(d, word, box) == generated_points(d, word, box)


def test_point_oracle_matches_box_scan_d4(d4):
    q, word = d4
    d = q.diagram
    per_point = frozenset(a for a in product(range(2), repeat=len(word)) if is_string(d, word, a))
    assert len(per_point) < 2 ** len(word)
    assert per_point == filtered_points(d, word, 1)


@pytest.mark.parametrize("n, box", [(n, box) for n in (1, 2, 3) for box in (3, 4)])
def test_kernels_where_code_digits_carry_type_a(n, box):
    # past box 1 a point's integer code carries from one digit to the next;
    # the box scans by is_string stop at rank 2: rank 3 at box 3 is scanned by
    # test_oracle_agreement_type_a and one orientation at box 4 by
    # test_box_scan_a3_box_four, and the full cone scan pins every point
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        generated = generated_points(d, word, box)
        assert filtered_points(d, word, box) == generated
        normals = move_vectors(build_ar(q))
        cone = cone_points(normals, box, len(word))
        assert pruned_points(normals, box, len(word)) == cone == generated
        if n <= 2:
            box_points = product(range(box + 1), repeat=len(word))
            assert frozenset(a for a in box_points if is_string(d, word, a)) == generated


def test_kernels_where_code_digits_carry_d4(d4):
    # 3^12 points at box 2: the full cone scan pins every one of them, where
    # an is_string scan would take minutes (test_point_oracle_matches_box_scan_d4
    # runs that scan at box 1)
    q, word = d4
    d = q.diagram
    generated = generated_points(d, word, 2)
    assert filtered_points(d, word, 2) == generated
    normals = move_vectors(build_ar(q))
    cone = cone_points(normals, 2, len(word))
    assert pruned_points(normals, 2, len(word)) == cone == generated


def test_box_scan_a3_box_four(a3):
    # every point of A3 2>1,2>3's box 4 (15,625 of them) through the greedy
    # lowering path, against both box searches
    q, word = a3
    d = q.diagram
    box_points = list(product(range(5), repeat=len(word)))
    assert len(box_points) == 15625
    accepted = frozenset(a for a in box_points if is_string(d, word, a))
    assert accepted == generated_points(d, word, 4) == filtered_points(d, word, 4)


@pytest.mark.parametrize("spec, box", [("2>1", 4), ("1>2", 4), ("2>1,2>3", 2),
                                       ("1>2,3>2", 2), ("1>2,2>3", 2), ("4>3,3>1,3>2", 1)])
def test_greedy_lowering_path_decides_like_every_path(spec, box):
    # the greedy walk of is_string against a search over every lowering path,
    # on every point of the box, strings or not
    q = parse_quiver(spec)
    d, word = q.diagram, adapted_word(q)
    box_points = list(product(range(box + 1), repeat=len(word)))
    greedy = [is_string(d, word, a) for a in box_points]
    every = [lowers_to_zero(d, word, a) for a in box_points]
    assert greedy == every
    assert 0 < sum(greedy) < len(box_points)
    # and the lowering filter's box search against the same search
    assert filtered_points(d, word, box) == {a for a, ok in zip(box_points, every) if ok}


def doctored_cartan(d, diagonal):
    """The Cartan matrix of d with every diagonal entry set to `diagonal`."""
    return tuple(
        tuple(diagonal if i == j else c for j, c in enumerate(row))
        for i, row in enumerate(cartan_matrix(d))
    )


@pytest.mark.parametrize("diagonal", [1, 3])
def test_certificate_failures_match_the_reference(diagonal):
    # fact 1 of is_string needs c_ii = 2: with another diagonal raising and
    # lowering are no longer inverse, and the closure has points that do not
    # lower; NotLowered must carry exactly the reference certificate's failures
    cases = [
        (q.diagram, adapted_word(q)) for n in (2, 3) for q in all_orientations(path_diagram(n))
    ]
    failures = []
    _layout.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(strings, "cartan_matrix", lambda d: doctored_cartan(d, diagonal))
            for d, word in cases:
                try:
                    codes, failing = generate_strings(d, word, 2), []
                except NotLowered as exc:
                    codes, failing = exc.codes, exc.points
                    assert failing
                found = points(codes, len(word), 2)
                assert failing == not_lowered(doctored_cartan(d, diagonal), word, found)
                failures.append(len(failing))
    finally:
        _layout.cache_clear()  # later tests must not read the doctored rows
    assert any(failures), failures


@given(data=st.data())
@settings(deadline=None, max_examples=60)
def test_closure_and_certificate_match_the_reference(data):
    # the fiber search reads only r's triangular form, so under any integer
    # Cartan matrix its codes must be the reference raising closure and
    # NotLowered must carry exactly the reference certificate's failures
    n = data.draw(st.integers(1, 4), label="rank")
    q = data.draw(st.sampled_from(all_orientations(path_diagram(n))), label="quiver")
    word = adapted_word(q)
    box = data.draw(st.integers(0, max(b for b in range(4) if (b + 1) ** len(word) <= 4096)),
                    label="box")
    entries = st.lists(st.integers(-2, 3), min_size=n, max_size=n)
    cm = tuple(map(tuple, data.draw(st.lists(entries, min_size=n, max_size=n), label="cm")))
    _layout.cache_clear()
    try:
        with pytest.MonkeyPatch.context() as m:
            m.setattr(strings, "cartan_matrix", lambda d: cm)
            try:
                codes, failing = generate_strings(q.diagram, word, box), []
            except NotLowered as exc:
                codes, failing = exc.codes, exc.points
    finally:
        _layout.cache_clear()  # later tests must not read the drawn rows
    found = raising_closure(cm, word, box)
    assert frozenset(points(codes, len(word), box)) == found
    assert failing == not_lowered(cm, word, found)


def closure_by_string_e(d, word, box):
    """The closure of zero under the per-point raising operators, kept to the box."""
    zero = (0,) * len(word)
    seen = {zero}
    stack = [zero]
    while stack:
        a = stack.pop()
        for i in sorted(set(word)):
            b = string_e(d, word, i, a)
            if max(b) <= box and b not in seen:
                seen.add(b)
                stack.append(b)
    return frozenset(seen)


def test_generate_strings_is_the_string_e_closure(d4):
    # the raising closure's scan against the per-point raising rule
    cases = [(q, adapted_word(q), 3) for n in (1, 2, 3) for q in all_orientations(path_diagram(n))]
    cases.append((*d4, 2))
    sizes = []
    for q, word, box in cases:
        closure = closure_by_string_e(q.diagram, word, box)
        assert generated_points(q.diagram, word, box) == closure
        sizes.append(len(closure))
    assert sum(sizes[:-1]) == 3224
    assert sizes[-1] == 4914


@pytest.mark.parametrize(
    "d",
    [path_diagram(n) for n in range(1, 6)] + [d_diagram(4), d_diagram(5)],
    ids=[f"A{n}" for n in range(1, 6)] + ["D4", "D5"],
)
def test_both_kernels_share_one_search(kernel_calls, d):
    # the raising closure and the lowering certificate come from one search:
    # each cone check calls generate_strings once and never the lowering
    # filter's search
    for q in all_orientations(d):
        ar = build_ar(q)
        report = check_cone(d, ar.word, move_vectors(ar), 1)
        assert report.passed or not condition_L(ar), quiver_spec(q)
    assert kernel_calls == {"generate_strings": len(all_orientations(d)), "strings_in_box": 0}


def test_every_generated_vertex_is_a_string(a3):
    q, word = a3
    d = q.diagram
    for a in sorted(generated_points(d, word, 2)):
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
    generated = generated_points(d, word, 2)
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
    for a in sorted(generated_points(d, word, 1)):
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
    # no coordinate: the empty point, whatever the box; one coordinate and a
    # negative box: no point
    for box in (-1, 0, 2):
        assert cone_points_pruned([], box, 0) == frozenset({0})
    assert cone_points_pruned([(1,)], -1, 1) == frozenset()


@given(st.data())
@settings(deadline=None, max_examples=60)
def test_pruned_scan_matches_naive(data):
    # up to dimension 6, so the last coordinate's code range and backtracking
    # over several set coordinates both meet the full scan
    dim = data.draw(st.integers(0, 6))
    box = data.draw(st.integers(0, 3 if dim <= 4 else 2))
    normals = data.draw(
        st.lists(
            st.tuples(*[st.integers(-2, 2) for _ in range(dim)]),
            min_size=0,
            max_size=4,
        )
    )
    assert pruned_points(normals, box, dim) == cone_points(normals, box, dim)


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
            assert pruned_points(normals, box, dim) == cone_points(normals, box, dim), (
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
