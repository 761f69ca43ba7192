import re

import pytest

import reference
from test_verify import _adapted_words
from stringcone.arquiver import build_ar
from stringcone.cartan import (
    InvariantViolation,
    NotReducedW0,
    path_diagram,
    simple_root,
    weyl_act,
)
from stringcone.lusztig import Antichain, antichains, move
from stringcone.cartan import pair_root_weight
from stringcone.quiver import NotAdapted, adapted_word, all_orientations, phi_R, rho
from stringcone import wiring
from stringcone.wiring import (
    GPPath,
    antichain_path,
    build_wiring,
    chamber_weight,
    gp_cone,
    gp_paths,
    is_gp_path,
    k_vector,
    lambda_minus,
    lambda_plus,
    limiting_path,
    path_antichain,
    paths_json,
    wiring_dot,
    zones,
)

A3_WORD = (1, 3, 2, 1, 3, 2)


def test_crossing_sequence_and_levels(a3_wd):
    assert a3_wd.pairs == ((1, 2), (3, 4), (1, 4), (2, 4), (1, 3), (2, 3))
    assert a3_wd.word == A3_WORD


def test_a2_crossings():
    wd = build_wiring((1, 2, 1), 2)
    assert wd.pairs == ((1, 2), (1, 3), (2, 3))


def test_rejects_non_reduced_and_type_d_words():
    with pytest.raises(NotReducedW0):
        build_wiring((1, 1, 2), 2)
    with pytest.raises(NotReducedW0):
        # adapted word of the rank-four branch quiver is not a type A word
        build_wiring((1, 2, 3, 1, 2, 4, 3, 1, 2, 4, 3, 4), 4)


def test_chamber_labels(a3_wd):
    # a chamber's label, the wires on tracks 1..band, is the same at each of its gaps
    labels = {tuple(sorted(row[:band])) for row in a3_wd.occupancy for band in (1, 2, 3)}
    assert {(1, 2), (2, 4), (1, 2, 4)} <= labels


def test_lambda_examples(a3_wd):
    # crossing three separates the chambers labelled 12 and 24
    assert lambda_minus(a3_wd, 3) == chamber_weight(3, {1, 2}) == (0, 1, 0)
    assert lambda_plus(a3_wd, 3) == chamber_weight(3, {2, 4}) == (-1, 1, -1)


def test_lambda_minus_prefix_formula(a3_wd):
    d = path_diagram(3)
    for k in range(1, 7):
        omega = simple_root(d, A3_WORD[k - 1])
        assert lambda_minus(a3_wd, k) == weyl_act(d, A3_WORD[: k - 1], omega, basis="weight")
        assert lambda_plus(a3_wd, k) == weyl_act(d, A3_WORD[:k], omega, basis="weight")


def test_border_chamber_weight(a3_wd):
    # the left border chamber of band j is labelled by the wires 1..j
    for j in range(1, 4):
        border = a3_wd.occupancy[0][:j]
        assert chamber_weight(3, border) == simple_root(path_diagram(3), j)


@pytest.mark.parametrize("n", range(1, 6))
def test_chambers_match_definition(n):
    for q in all_orientations(path_diagram(n)):
        word = adapted_word(q)
        wd = build_wiring(word, n)
        chambers = reference.chambers(word, n)
        for k in range(1, wd.N + 1):
            (left,) = [c for c in chambers if c.right_cap == k]
            (right,) = [c for c in chambers if c.left_cap == k]
            assert lambda_minus(wd, k) == chamber_weight(n, left.label)
            assert lambda_plus(wd, k) == chamber_weight(n, right.label)
        for i in range(1, n + 1):
            chosen = [c for c in chambers if i in c.label and i + 1 not in c.label]
            z = zones(wd, i)
            assert z.z_positions == {c.right_cap for c in chosen}
            assert z.y_positions == frozenset().union(*(c.corners for c in chosen))


def test_five_paths_golden(a3_wd):
    paths = gp_paths(a3_wd, 2)
    assert len(paths) == 5
    crossings = {p.crossings for p in paths}
    assert (2, 5, 3, 4, 1) in crossings
    example = next(p for p in paths if p.crossings == (2, 5, 3, 4, 1))
    assert k_vector(a3_wd, example) == (0, 0, -1, 1, 1, 0)


def test_k_vectors_equal_type_two_moves(a3_wd, a3_ar):
    got = {k_vector(a3_wd, p) for p in gp_paths(a3_wd, 2)}
    expected = {move(a3_ar, a) for a in antichains(a3_ar, 2)}
    assert got == expected


def test_a2_path_cone_golden():
    wd = build_wiring((1, 2, 1), 2)
    assert gp_cone(wd) == frozenset({(1, 0, 0), (-1, 1, 0), (0, 0, 1)})


def test_path_vectors_never_vanish(a3_wd):
    for i in (1, 2, 3):
        for p in gp_paths(a3_wd, i):
            assert any(k_vector(a3_wd, p))


def test_oriented_graph_is_acyclic(a3_wd):
    for i in (1, 2, 3):
        graph = wiring._table(a3_wd, i).graph
        seen, active = set(), set()

        def visit(node):
            if node in active:
                raise AssertionError("cycle")
            if node in seen:
                return
            seen.add(node)
            active.add(node)
            for _, nxt in graph.get(node, ()):
                visit(nxt)
            active.discard(node)

        for node in list(graph):
            visit(node)


def test_limiting_path(a3_wd, a3_ar):
    for i in (1, 2, 3):
        delta = limiting_path(a3_wd, i)
        assert is_gp_path(a3_wd, delta)
        alpha_pos = a3_ar.position_by_root[simple_root(path_diagram(3), i)]
        assert k_vector(a3_wd, delta) == tuple(
            1 if k == alpha_pos else 0 for k in range(1, 7)
        )
    assert limiting_path(a3_wd, 2).crossings == (2, 5, 6, 4, 1)


def test_zone_positions_match_p_sets(a3_wd, a3_ar):
    for i in (1, 2, 3):
        z = zones(a3_wd, i)
        assert z.z_positions == set(a3_ar.p_set(i))
        assert z.y_positions - z.z_positions <= set(z.delta.crossings)
        for p in gp_paths(a3_wd, i):
            assert set(p.crossings) <= z.y_positions


def test_translation_on_crossings(a3_wd, a3_ar):
    word = a3_wd.word
    for k in range(1, 7):
        prev = [j for j in range(1, k) if word[j - 1] == word[k - 1]]
        assert (prev[-1] if prev else None) == a3_ar.tau.get(k)


@pytest.mark.parametrize("n", range(2, 6))
def test_limiting_path_crossing_directions(n):
    # every wire meeting the limiting path moves above the boundary wire in
    # its own travel direction: inward through the lower boundary, outward
    # through the upper one
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        wd = build_wiring(word, n)
        for i in range(1, n + 1):
            delta = limiting_path(wd, i)
            v_alpha = wd.crossing_of(i, i + 1)
            for idx, k in enumerate(delta.crossings):
                if k == v_alpha:
                    continue
                boundary = delta.wires[idx]
                a, b = wd.pairs[k - 1]
                other = a if b == boundary else b
                travel_forward = other > i
                tracks = wd.occupancy[k if travel_forward else k - 1]
                assert tracks.index(other) < tracks.index(boundary)


def test_path_to_antichain_example(a3_wd, a3_ar):
    example = next(p for p in gp_paths(a3_wd, 2) if p.crossings == (2, 5, 3, 4, 1))
    assert path_antichain(a3_wd, a3_ar, example) == Antichain(2, (4, 5))


@pytest.mark.parametrize(
    "path",
    [
        GPPath(2, (3,), (3, 1)),
        GPPath(2, (1,), (3, 1)),
        GPPath(2, (2, 5, 3, 4), (3, 3, 1, 4, 2)),
        GPPath(2, (2, 5, 3, 4, 1), (3, 3, 1, 4, 2)),
        GPPath(7, (), (8, 7)),
    ],
    ids=["wrong-exit-wire", "turns-outside-the-hammock", "stops-short", "one-wire-short",
         "no-such-type"],
)
def test_path_antichain_rejects_non_gp_paths(a3_wd, a3_ar, path):
    assert not is_gp_path(a3_wd, path)
    with pytest.raises(ValueError, match="is not a path"):
        path_antichain(a3_wd, a3_ar, path)
    with pytest.raises(ValueError, match="is not a path"):
        wiring.path_vector(a3_wd, path)


def _one_edit(path, n):
    """The path with one crossing dropped (alone, or with the wire after it),
    one wire changed to another, or its type index changed to any other in
    0..n+1."""
    i, crossings, wires = path.type_index, path.crossings, path.wires
    for idx in range(len(crossings)):
        rest = crossings[:idx] + crossings[idx + 1 :]
        yield GPPath(i, rest, wires)
        yield GPPath(i, rest, wires[: idx + 1] + wires[idx + 2 :])
    for idx, wire in enumerate(wires):
        for other in range(1, n + 2):
            if other != wire:
                yield GPPath(i, crossings, wires[:idx] + (other,) + wires[idx + 1 :])
    for j in range(n + 2):
        if j != i:
            yield GPPath(j, crossings, wires)


@pytest.mark.parametrize("n", range(1, 6))
def test_is_gp_path_matches_the_reference_walk(n):
    # every path, every one-edit change of it, and each of these with list
    # fields: the table's answer is the walk's, and never a TypeError
    verdicts = set()
    for q in all_orientations(path_diagram(n)):
        wd = build_wiring(adapted_word(q), n)
        for i in range(1, n + 1):
            for path in reference.gp_paths(wd, i):
                assert reference.is_gp_path(wd, path)
                for p in (path, *_one_edit(path, n)):
                    expected = reference.is_gp_path(wd, p)
                    listed = GPPath(p.type_index, list(p.crossings), list(p.wires))
                    assert is_gp_path(wd, p) == is_gp_path(wd, listed) == expected, p
                    verdicts.add(expected)
    assert verdicts == {True, False}


def test_gp_paths_refuses_a_type_out_of_range(a3_wd):
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"type index {i} out of range"):
            gp_paths(a3_wd, i)


def test_path_readers_refuse_the_diagram_of_another_word(a3_ar):
    # a reduced word of the same longest element, not the one a3_ar was built from
    other = build_wiring((1, 2, 1, 3, 2, 1), 3)
    with pytest.raises(NotAdapted, match="different words"):
        path_antichain(other, a3_ar, gp_paths(other, 2)[0])
    with pytest.raises(NotAdapted, match="different words"):
        antichain_path(other, a3_ar, antichains(a3_ar, 2)[0])


def test_round_trip_on_a3(a3_wd, a3_ar):
    for i in (1, 2, 3):
        for a in antichains(a3_ar, i):
            path = antichain_path(a3_wd, a3_ar, a)
            assert path_antichain(a3_wd, a3_ar, path) == a
            assert k_vector(a3_wd, path) == move(a3_ar, a)
        for p in gp_paths(a3_wd, i):
            assert antichain_path(a3_wd, a3_ar, path_antichain(a3_wd, a3_ar, p)) == p


@pytest.mark.parametrize("n", range(1, 6))
def test_path_records_match_their_definitions(n):
    # the type table lists each path once, with its k-vector and the sorted
    # positions where it turns from a wire > i onto a wire <= i
    for q in all_orientations(path_diagram(n)):
        wd = build_wiring(adapted_word(q), n)
        for i in range(1, n + 1):
            table = wiring._table(wd, i)
            assert tuple(table.members) == table.paths
            for p, (vec, turns) in table.members.items():
                assert vec == k_vector(wd, p)
                steps = zip(p.crossings, p.wires, p.wires[1:])
                assert turns == tuple(sorted(k for k, h, l in steps if h > i and l <= i))
        assert wiring.gp_table(wd) == [
            (i, p, k_vector(wd, p)) for i in range(1, n + 1) for p in gp_paths(wd, i)
        ]


@pytest.mark.parametrize("n", range(1, 6))
def test_bijection_all_orientations(n):
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        ar = build_ar(q)
        wd = build_wiring(word, n)
        for i in range(1, n + 1):
            paths = gp_paths(wd, i)
            chains = antichains(ar, i)
            assert len(paths) == len(chains)
            for a in chains:
                assert k_vector(wd, antichain_path(wd, ar, a)) == move(ar, a)


@pytest.mark.parametrize("n", range(1, 7))
def test_gp_paths_match_the_unpruned_search(n):
    for q in all_orientations(path_diagram(n)):
        wd = build_wiring(adapted_word(q), n)
        for i in range(1, n + 1):
            assert gp_paths(wd, i) == reference.gp_paths(wd, i)


@pytest.mark.parametrize("n", range(1, 6))
def test_limiting_path_is_the_simple_root_staircase(n):
    # the simple root tops the type-i poset: its ideal is the whole poset and
    # its move is the unit vector at the simple root, as for the limiting path
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        ar = build_ar(q, word)
        wd = build_wiring(word, n)
        for i in range(1, n + 1):
            top = Antichain(i, (ar.position_by_root[simple_root(d, i)],))
            assert limiting_path(wd, i) == antichain_path(wd, ar, top)


@pytest.mark.parametrize(
    "a",
    [
        Antichain(2, (99,)),
        Antichain(2, (0,)),
        Antichain(2, (1,)),
        Antichain(2, ()),
        Antichain(7, (1,)),
        Antichain(2, (3, 4)),
        Antichain(2, (4, 4)),
        Antichain(2, (5, 4)),
    ],
    ids=[
        "no-such-position",
        "position-zero",
        "outside-the-poset",
        "empty",
        "no-such-type",
        "comparable",
        "repeated",
        "unsorted",
    ],
)
def test_antichain_path_rejects_positions_outside_the_poset(a3_wd, a3_ar, a):
    with pytest.raises(ValueError, match=re.escape(repr(a))):
        antichain_path(a3_wd, a3_ar, a)


@pytest.mark.parametrize("n", range(1, 6))
def test_staircase_turns_match_the_hammock_grid(n):
    # the path turns from the column wire onto the row wire of each position's
    # grid cell, in the order of descending grid row
    for q in all_orientations(path_diagram(n)):
        for word in _adapted_words(q, limit=6):
            ar = build_ar(q, word)
            wd = build_wiring(word, n)
            for i in range(1, n + 1):
                for a in antichains(ar, i):
                    path = antichain_path(wd, ar, a)
                    turns = [
                        (low, high)
                        for high, low in zip(path.wires, path.wires[1:])
                        if high > i >= low
                    ]
                    assert turns == reference.staircase_turns(ar, a)


@pytest.mark.parametrize("n", range(1, 7))
def test_crossing_of_matches_the_pair_list(n):
    for q in all_orientations(path_diagram(n)):
        wd = build_wiring(adapted_word(q), n)
        for a in range(1, n + 2):
            for b in range(a + 1, n + 2):
                k = wd.pairs.index((a, b)) + 1
                assert wd.crossing_of(a, b) == wd.crossing_of(b, a) == k
        for a, b in ((1, 1), (n + 1, n + 1), (0, 1), (1, n + 2)):
            with pytest.raises(ValueError):
                wd.crossing_of(a, b)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_staircase_refuses_a_wire_list_it_cannot_ride(a3_wd, i):
    # a wire that follows itself meets no crossing to switch at, and a wire
    # taken up again at the crossing where the ride left it is not ahead
    with pytest.raises(ValueError, match=f"wires {i + 1} and {i + 1} do not cross"):
        wiring._staircase(a3_wd, i, (i + 1, i + 1, i))
    with pytest.raises(InvariantViolation, match="not ahead"):
        wiring._staircase(a3_wd, i, (i + 1, i, i + 1))


@pytest.mark.parametrize("n", range(1, 7))
def test_forbidden_crossings_match_definition(n):
    for q in all_orientations(path_diagram(n)):
        word = adapted_word(q)
        wd = build_wiring(word, n)
        for i in range(1, n + 1):
            assert wiring._table(wd, i).forbidden == reference.forbidden_crossings(word, n, i)


@pytest.mark.parametrize("n", range(1, 7))
def test_lambda_plus_is_column_map(n):
    d = path_diagram(n)
    for q in all_orientations(d):
        word = adapted_word(q)
        ar = build_ar(q)
        wd = build_wiring(word, n)
        for k in range(1, ar.N + 1):
            assert lambda_plus(wd, k) == phi_R(q, ar.root(k))
            lm = lambda_minus(wd, k)
            for i in range(1, n + 1):
                assert pair_root_weight(ar.root(k), rho(q, i)) == lm[i - 1]


def test_dot_and_json_exports(a3_wd):
    dot = wiring_dot(a3_wd)
    assert dot.startswith("graph wiring {")
    assert 'v3 [label="v14"];' in dot
    rows = paths_json(a3_wd, 2)
    assert len(rows) == 5
    assert {"type": 2, "crossings": [2, 5, 3, 4, 1], "k": [0, 0, -1, 1, 1, 0]} in rows
    assert paths_json(a3_wd) == paths_json(a3_wd)
