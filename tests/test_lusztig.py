import re

import pytest
from hypothesis import given, strategies as st

import reference
from stringcone.arquiver import build_ar
from stringcone.cartan import InvariantViolation, d_diagram, path_diagram
from stringcone.lusztig import (
    Antichain,
    all_moves,
    antichain_rows,
    antichains,
    cominimals,
    f_value,
    ideal,
    lusztig_crystal,
    lusztig_e,
    lusztig_weight,
    maximal_antichain,
    move,
    move_vectors,
    moves_tsv,
    u_vector,
)
from stringcone.quiver import all_orientations, condition_L, parse_quiver

from reference import same_labelled_graph

T_PAPER = (3, 2, 1, 1, 2, 0)


def test_a3_antichain_table(a3_ar):
    chains = antichains(a3_ar, 2)
    assert [a.positions for a in chains] == [(3,), (4,), (5,), (4, 5), (6,)]
    assert [move(a3_ar, a) for a in chains] == [
        (-1, -1, 1, 0, 0, 0),
        (0, -1, 0, 1, 0, 0),
        (-1, 0, 0, 0, 1, 0),
        (0, 0, -1, 1, 1, 0),
        (0, 0, 0, 0, 0, 1),
    ]
    assert cominimals(a3_ar, chains[0]) == (4, 5)
    assert cominimals(a3_ar, chains[4]) == ()
    assert ideal(a3_ar, chains[3]) == (3, 4, 5)


def test_antichain_counts(d4_ar):
    assert [len(antichains(d4_ar, i)) for i in range(1, 5)] == [1, 1, 6, 7]


def test_chain_poset_has_singleton_antichains():
    # type four of the rank-four zigzag gives a chain inside its hammock
    q = parse_quiver("2>1,2>3,4>3")
    ar = build_ar(q)
    ground = ar.p_set(4)
    chain = all(
        ar.leq(a, b) or ar.leq(b, a) for a in ground for b in ground
    )
    assert chain
    assert len(antichains(ar, 4)) == len(ground)


def test_ladder_step_without_a_parent_ideal_is_an_invariant_violation():
    # type 4 of this quiver is the chain 5 < 6 < 7 < 8; with the relation 5 <= 8
    # cut out of the down-set of 8 (the map-to-simple table kept), the ideal
    # {6, 7, 8} of (8,) minus 8 is no antichain's ideal
    ar = build_ar(parse_quiver("2>1,2>3,4>3"))
    assert ar.p_set(4) == (5, 6, 7, 8)
    down = list(ar.down)
    down[7] &= ~(1 << 5)
    broken = ar._replace(down=tuple(down))
    broken.cache["hom"] = ar.hom_table()
    with pytest.raises(InvariantViolation, match="no antichain's ideal") as err:
        antichains(broken, 4)
    assert err.value.witness == {"type": 4, "antichain": (8,), "removed": 8}


def _table_instances():
    type_a = [q for n in range(1, 5) for q in all_orientations(path_diagram(n))]
    type_d = [q for q in all_orientations(d_diagram(4)) if condition_L(build_ar(q))]
    return type_a + type_d


@pytest.mark.parametrize("q", _table_instances(), ids=lambda q: ",".join(map(str, q.arrows)))
def test_antichain_table_matches_definitions(q):
    ar = build_ar(q)
    for i in range(1, ar.n + 1):
        ground = ar.p_set(i)
        subsets = [
            tuple(x for b, x in enumerate(ground) if bits >> b & 1)
            for bits in range(1, 1 << len(ground))
        ]
        expected = {
            s for s in subsets if not any(x != y and ar.leq(x, y) for x in s for y in s)
        }
        chains = antichains(ar, i)
        assert {a.positions for a in chains} == expected and len(chains) == len(expected)
        for a in chains:
            assert ideal(ar, a) == reference.ideal(ar, a)
            assert cominimals(ar, a) == reference.cominimals(ar, a)
            assert move(ar, a) == reference.move(ar, a)
            # F_A is linear: its value on the unit vectors is its coefficient row
            coefficients = [0] * ar.N
            for k in reference.ideal(ar, a):
                coefficients[k - 1] += 1
                if k in ar.tau:
                    coefficients[ar.tau[k] - 1] -= 1
            units = [tuple(int(j == k) for j in range(ar.N)) for k in range(ar.N)]
            assert [f_value(ar, a, e) for e in units] == coefficients


def test_lookup_rejects_antichains_outside_the_table(a3_ar):
    outside = [
        Antichain(2, (5, 4)),  # unsorted positions
        Antichain(1, (4, 5)),  # an antichain of type 2, not of type 1
        Antichain(2, (3, 4)),  # 3 lies below 4
        Antichain(9, (1,)),  # no such type
    ]
    for a in outside:
        readers = [ideal, cominimals, move, u_vector, lambda ar, a: f_value(ar, a, (0,) * 6)]
        for reader in readers:
            with pytest.raises(ValueError, match=re.escape(repr(a))):
                reader(a3_ar, a)


def test_maximal_antichain_rejects_wrong_length_vectors():
    ar = build_ar(parse_quiver("2>1"))  # N = 3
    for i, t in ((1, (0, 0, 0, 5)), (2, (1, 0)), (1, ())):
        with pytest.raises(ValueError, match="not N = 3"):
            maximal_antichain(ar, i, t)
        with pytest.raises(ValueError, match="not N = 3"):
            lusztig_e(ar, i, t)


def test_f_value_rejects_wrong_length_vectors():
    ar = build_ar(parse_quiver("2>1"))
    for a in antichains(ar, 1) + antichains(ar, 2):
        for t in ((1,), (0, 0, 0, 5)):
            with pytest.raises(ValueError, match="not N = 3"):
                f_value(ar, a, t)


def test_f_values_at_paper_point(a3_ar):
    chains = antichains(a3_ar, 2)
    values = [f_value(a3_ar, a, T_PAPER) for a in chains]
    assert values == [1, -1, 1, -1, -2]
    assert all(f_value(a3_ar, a, (0,) * 6) == 0 for a in chains)


def _reference_maximal(ar, i, t):
    """The maximal antichain from the definitions: F_A is the sum over the order
    ideal of A of t_k minus t at the translate, and among the F maximizers the
    answer is the one whose ideal contains every other maximizer's ideal."""
    ground = ar.p_set(i)
    scored = []
    for bits in range(1, 1 << len(ground)):
        chosen = [x for b, x in enumerate(ground) if bits >> b & 1]
        if any(x != y and ar.leq(x, y) for x in chosen for y in chosen):
            continue
        below = {x for x in ground if any(ar.leq(x, top) for top in chosen)}
        value = sum(t[k - 1] - (t[ar.tau[k] - 1] if k in ar.tau else 0) for k in below)
        scored.append((value, tuple(chosen), below))
    zeta = max(value for value, _, _ in scored)
    maximizers = [(chosen, below) for value, chosen, below in scored if value == zeta]
    (top,) = [
        chosen for chosen, below in maximizers if all(other <= below for _, other in maximizers)
    ]
    return top


# every table instance plus one rank-5 orientation of each type; the ladder pass
# of maximal_antichain against the definitions and against direct F_A sums
_MAXIMAL_INSTANCES = _table_instances() + [
    parse_quiver("1>2,3>2,3>4,5>4"),
    parse_quiver("1>3,2>3,3>4,4>5"),
]


def _check_maximal(ar, t):
    for i in range(1, ar.n + 1):
        top = maximal_antichain(ar, i, t)
        assert top.positions == _reference_maximal(ar, i, t)
        assert f_value(ar, top, t) == max(f_value(ar, a, t) for a in antichains(ar, i))


@pytest.mark.parametrize("q", _MAXIMAL_INSTANCES, ids=lambda q: ",".join(map(str, q.arrows)))
def test_maximal_antichain_at_zero_and_unit_vectors(q):
    ar = build_ar(q)
    _check_maximal(ar, (0,) * ar.N)
    for k in range(ar.N):
        _check_maximal(ar, tuple(int(j == k) for j in range(ar.N)))


@given(st.sampled_from(_MAXIMAL_INSTANCES), st.data())
def test_maximal_antichain_matches_definition(q, data):
    ar = build_ar(q)
    _check_maximal(ar, data.draw(st.lists(st.integers(0, 5), min_size=ar.N, max_size=ar.N)))


@given(st.sampled_from(_MAXIMAL_INSTANCES), st.data())
def test_lusztig_e_adds_the_move_of_the_maximal_antichain(q, data):
    ar = build_ar(q)
    t = tuple(data.draw(st.lists(st.integers(0, 5), min_size=ar.N, max_size=ar.N)))
    for i in range(1, ar.n + 1):
        step = move(ar, maximal_antichain(ar, i, t))
        assert lusztig_e(ar, i, t) == tuple(x + m for x, m in zip(t, step))


def test_raising_operator_paper_example(a3_ar):
    assert lusztig_e(a3_ar, 2, T_PAPER) == (2, 2, 1, 1, 3, 0)


@given(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8)))
def test_a2_closed_forms(t):
    q = parse_quiver("2>1")
    ar = build_ar(q)
    assert lusztig_e(ar, 1, t) == (t[0] + 1, t[1], t[2])
    if t[0] > t[2]:
        assert lusztig_e(ar, 2, t) == (t[0] - 1, t[1] + 1, t[2])
    else:
        assert lusztig_e(ar, 2, t) == (t[0], t[1], t[2] + 1)


def test_a2_move_set():
    ar = build_ar(parse_quiver("2>1"))
    assert move_vectors(ar) == frozenset({(1, 0, 0), (-1, 1, 0), (0, 0, 1)})


def test_d4_move_rows(d4_ar):
    rows = {a.positions: vec for a, vec in all_moves(d4_ar) if a.type_index == 4}
    vec = rows[(6,)]
    assert vec[5] == 1 and vec[2] == -1 and sum(map(abs, vec)) == 2


def test_move_weights_are_simple_roots(d4_ar):
    for a, vec in all_moves(d4_ar):
        weight = lusztig_weight(d4_ar, [max(v, 0) for v in vec])
        weight = tuple(
            w - x
            for w, x in zip(
                weight, lusztig_weight(d4_ar, [max(-v, 0) for v in vec])
            )
        )
        expected = tuple(1 if j == a.type_index - 1 else 0 for j in range(4))
        assert weight == expected


def test_crystal_depth_zero_and_one(a3_ar):
    ar2 = build_ar(parse_quiver("2>1"))
    g0 = lusztig_crystal(ar2, 0)
    assert g0.vertices == frozenset({(0, 0, 0)})
    g1 = lusztig_crystal(ar2, 1)
    assert g1.vertices == frozenset({(0, 0, 0), (1, 0, 0), (0, 0, 1)})


def test_crystal_vertex_heights(a3_ar):
    depth = 4
    graph = lusztig_crystal(a3_ar, depth)
    for v in graph.vertices:
        assert sum(lusztig_weight(a3_ar, v)) <= depth


def test_nonnegative_outputs_and_weight_steps(a3_ar):
    graph = lusztig_crystal(a3_ar, 5)
    for v, i, w in graph.edges:
        assert all(x >= 0 for x in w)
        diff = tuple(
            b - a for a, b in zip(lusztig_weight(a3_ar, v), lusztig_weight(a3_ar, w))
        )
        assert diff == tuple(1 if j == i - 1 else 0 for j in range(3))


@pytest.mark.parametrize("n", range(2, 6))
def test_witness_property_small_ranks(n):
    for q in all_orientations(path_diagram(n)):
        ar = build_ar(q)
        for i in range(1, n + 1):
            for a in antichains(ar, i):
                t_u = u_vector(ar, a)
                got = lusztig_e(ar, i, t_u)
                assert got == tuple(x + m for x, m in zip(t_u, move(ar, a)))


def test_antichain_rows_match_the_readers(a3_ar, d4_ar):
    for ar in (a3_ar, d4_ar):
        for i in range(1, ar.n + 1):
            assert list(antichain_rows(ar, i)) == [
                (a, cominimals(ar, a), move(ar, a), u_vector(ar, a))
                for a in antichains(ar, i)
            ]


@pytest.mark.parametrize(
    "d",
    [path_diagram(n) for n in range(1, 6)] + [d_diagram(4), d_diagram(5)],
    ids=[f"A{n}" for n in range(1, 6)] + ["D4", "D5"],
)
def test_u_vector_records_match_their_definitions(d):
    # each entry's u-vector counts the translates of the complement minimals,
    # and move + u is the 0/1 indicator of the antichain
    for q in all_orientations(d):
        ar = build_ar(q)
        for i in range(1, ar.n + 1):
            for a, _, mv, t_u in antichain_rows(ar, i):
                translates = [ar.tau.get(c) for c in reference.cominimals(ar, a)]
                assert t_u == tuple(translates.count(k) for k in range(1, ar.N + 1))
                assert tuple(m + u for m, u in zip(mv, t_u)) == tuple(
                    int(k in a.positions) for k in range(1, ar.N + 1)
                )


def test_u_vector_deltas(d4_ar):
    for i in range(1, 5):
        for a in antichains(d4_ar, i):
            t_u = u_vector(d4_ar, a)
            for k in ideal(d4_ar, a):
                prev = d4_ar.tau.get(k)
                assert t_u[k - 1] - (t_u[prev - 1] if prev else 0) >= 0
            for k in cominimals(d4_ar, a):
                prev = d4_ar.tau.get(k)
                assert t_u[k - 1] - (t_u[prev - 1] if prev else 0) == -1


def test_moves_tsv_shape(a3_ar):
    text = moves_tsv(a3_ar)
    lines = text.strip().split("\n")
    assert lines[0].split("\t") == ["type", "antichain", "translated_minimals", "vector"]
    assert len(lines) == 1 + 7  # one type-1, five type-2, one type-3 rows
    assert "2\t4,5\t3\t0,0,-1,1,1,0" in lines


def test_rejects_negative_parameters(a3_ar):
    with pytest.raises(ValueError):
        lusztig_e(a3_ar, 2, (-1, 0, 0, 0, 0, 0))


def test_crystal_graphs_same_shape_for_both_canonical_words():
    # two adapted words of the same quiver class give the same labelled graph
    q1 = parse_quiver("2>1,2>3")
    q2 = parse_quiver("1>2,3>2")
    g1 = lusztig_crystal(build_ar(q1), 4)
    g2 = lusztig_crystal(build_ar(q2), 4)
    assert same_labelled_graph(g1, g2)
