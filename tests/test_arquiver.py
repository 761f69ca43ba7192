import pytest

from stringcone.arquiver import (
    ar_dot,
    build_ar,
    grid_A,
    injective_dimension_vector,
    projective_dimension_vector,
)
from stringcone.cartan import d_diagram, path_diagram, simple_root
from stringcone.quiver import (
    NotAdapted,
    all_orientations,
    coxeter_act_root,
    parse_quiver,
)

import reference

A4_ZIGZAG = "2>1,2>3,4>3"


def test_a3_arrows_golden(a3_ar):
    assert a3_ar.arrows == ((1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 6))


def test_a3_translation(a3_ar):
    assert a3_ar.tau == {4: 1, 5: 2, 6: 3}
    # the translate of the last level-two module is the big root
    assert a3_ar.root(a3_ar.tau[6]) == (1, 1, 1)
    assert coxeter_act_root(a3_ar.quiver, a3_ar.root(6)) == (1, 1, 1)


def test_d4_translation(d4_ar):
    # position 10 carries the middle simple root; its translate is position 6
    assert d4_ar.root(10) == (0, 0, 1, 0)
    assert d4_ar.tau[10] == 6
    assert coxeter_act_root(d4_ar.quiver, d4_ar.root(10)) == d4_ar.root(6)
    assert d4_ar.tau == {4: 1, 5: 2, 7: 3, 8: 4, 9: 5, 10: 6, 11: 7, 12: 10}


def test_d4_arrows_golden(d4_ar):
    expected = {
        (1, 3), (2, 3), (3, 4), (3, 5), (3, 6), (4, 7), (5, 7), (6, 7),
        (7, 8), (7, 9), (7, 10), (8, 11), (9, 11), (10, 11), (11, 12),
    }
    assert set(d4_ar.arrows) == expected


def test_leq_examples(a3_ar):
    assert a3_ar.leq(3, 6)
    assert not a3_ar.leq(1, 2)
    for k in range(1, 7):
        assert a3_ar.leq(k, k)


def test_p_sets(a3_ar, d4_ar):
    assert a3_ar.p_set(2) == (3, 4, 5, 6)
    assert d4_ar.p_set(1) == (1,)
    assert d4_ar.p_set(2) == (2,)
    assert d4_ar.p_set(3) == (3, 4, 5, 7, 10)
    assert d4_ar.p_set(4) == (6, 7, 8, 9, 11, 12)


def test_rejects_non_adapted_word():
    q = parse_quiver("2>1,2>3")
    with pytest.raises(NotAdapted):
        build_ar(q, (2, 1, 3, 2, 1, 3))


def test_projective_and_injective_vectors():
    q = parse_quiver("2>1,2>3")
    assert projective_dimension_vector(q, 2) == (1, 1, 1)
    assert projective_dimension_vector(q, 1) == (1, 0, 0)
    assert injective_dimension_vector(q, 2) == (0, 1, 0)
    assert injective_dimension_vector(q, 3) == (0, 1, 1)


SMALL = [path_diagram(n) for n in range(1, 7)] + [d_diagram(n) for n in (4, 5, 6)]


@pytest.mark.parametrize("d", SMALL, ids=lambda d: f"n{d.n}e{len(d.edges)}")
def test_level_structure_everywhere(d):
    from stringcone.cartan import w0_involution

    invol = w0_involution(d)
    for q in all_orientations(d):
        ar = build_ar(q)
        for i in range(1, d.n + 1):
            positions = ar.level_positions(i)
            assert positions, "every level is inhabited"
            assert ar.root(positions[0]) == projective_dimension_vector(q, i)
            assert ar.root(positions[-1]) == injective_dimension_vector(q, invol[i - 1])
            for k in positions:
                if k in ar.tau:
                    assert ar.root(ar.tau[k]) == coxeter_act_root(q, ar.root(k))
                else:
                    assert k == positions[0]


@pytest.mark.parametrize("d", SMALL, ids=lambda d: f"n{d.n}e{len(d.edges)}")
def test_arrows_join_adjacent_levels(d):
    # the one-pass build against the definitions: arrows join adjacent letters
    # with no occurrence of either in between, the translation is the previous
    # occurrence of the letter, and leq is the path order
    for q in all_orientations(d):
        ar = build_ar(q)
        assert ar.arrows == reference.ar_arrows(d, ar.word)
        assert ar.tau == reference.translation(ar.word)
        order = reference.path_order(ar.N, ar.arrows)
        positions = range(1, ar.N + 1)
        assert {(k1, k2) for k1 in positions for k2 in positions if ar.leq(k1, k2)} == order


def test_grid_a4_golden():
    q = parse_quiver(A4_ZIGZAG)
    ar = build_ar(q)
    grid = grid_A(ar, 3)
    assert grid.left_segment == (2, 1, 3)
    assert grid.right_segment == (5, 4)
    assert ar.root(grid.cells[(1, 4)]) == (0, 1, 1, 1)


def test_grid_a3_corners(a3_ar):
    grid = grid_A(a3_ar, 2)
    n = 3
    beta_min = grid.cells[(2, n + 1)]
    beta_max = grid.cells[(1, 3)]
    assert a3_ar.root(beta_min) == (1, 1, 1)  # projective cover position
    assert a3_ar.root(beta_max) == (0, 1, 0)  # injective envelope position


@pytest.mark.parametrize("n", range(1, 7))
def test_grid_matches_hammock_and_order(n):
    d = path_diagram(n)
    for q in all_orientations(d):
        ar = build_ar(q)
        for i in range(1, n + 1):
            grid = grid_A(ar, i)
            assert sorted(grid.cells.values()) == sorted(ar.hammock(i))
            pset = set(ar.p_set(i))
            for c1, p1 in grid.cells.items():
                for c2, p2 in grid.cells.items():
                    if p1 in pset and p2 in pset:
                        assert grid.leq(c1, c2) == ar.leq(p1, p2)


@pytest.mark.parametrize("n", range(1, 7))
def test_p_set_is_ideal_of_simple_in_hammock(n):
    d = path_diagram(n)
    for q in all_orientations(d):
        ar = build_ar(q)
        for i in range(1, n + 1):
            top = ar.position_by_root[simple_root(d, i)]
            ideal = tuple(k for k in ar.hammock(i) if ar.leq(k, top))
            assert ar.p_set(i) == ideal
            if not any(src == i for src, _ in q.arrows):  # i is a sink
                assert ar.p_set(i) == (top,) == (ar.level_positions(i)[0],)
            if not any(dst == i for _, dst in q.arrows):  # i is a source
                assert ar.p_set(i) == ar.hammock(i)


def test_hammock_refuses_a_type_out_of_range(a3_ar):
    assert a3_ar.hammock(3) == (2, 3, 4)
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"type index {i} out of range 1..3"):
            a3_ar.hammock(i)


def test_level_positions_refuses_a_type_out_of_range(a3_ar):
    assert a3_ar.level_positions(3) == (2, 5)
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"type index {i} out of range 1..3"):
            a3_ar.level_positions(i)


def test_grid_rejects_type_d(d4_ar):
    with pytest.raises(ValueError):
        grid_A(d4_ar, 3)


def test_dot_export_shape(a3_ar):
    dot = ar_dot(a3_ar)
    assert dot.startswith("digraph ar {")
    assert 'v3 [label="(1,1,1)"];' in dot
    assert "v1 -> v3;" in dot
    assert dot == ar_dot(a3_ar)
