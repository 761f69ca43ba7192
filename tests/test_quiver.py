import pytest

from stringcone.arquiver import build_ar
from stringcone.cartan import cartan_matrix, d_diagram, path_diagram, simple_root
from stringcone.quiver import (
    QuiverParseError,
    adapted_word,
    all_orientations,
    condition_L,
    coxeter_cycle,
    is_adapted,
    parse_quiver,
    quiver,
    quiver_spec,
    rho,
    rho_t,
    ringel_matrix,
    segmented_cycle,
    sink_order,
)

import reference
from reference import NotASink, coxeter_permutation, is_sink, reflect_sink, ringel_form

A4_ZIGZAG = "2>1,2>3,4>3"  # 1 <- 2 -> 3 <- 4


def test_parse_examples():
    q = parse_quiver("2>1,2>3")
    assert q.arrows == ((2, 1), (2, 3))
    assert q.diagram == path_diagram(3)
    q = parse_quiver("4>3,3>1,3>2")
    assert q.diagram == d_diagram(4)
    assert set(q.arrows) == {(4, 3), (3, 1), (3, 2)}
    q = parse_quiver(" 1>2 , 3>2 ")
    assert q.arrows == ((1, 2), (3, 2))


def test_parse_errors():
    with pytest.raises(QuiverParseError):
        parse_quiver("1-2")
    with pytest.raises(QuiverParseError):
        parse_quiver("")
    with pytest.raises(QuiverParseError):
        parse_quiver("1>3")  # vertex 2 missing
    with pytest.raises(QuiverParseError):
        parse_quiver("1>2,2>3,3>1")  # cycle
    with pytest.raises(QuiverParseError):
        parse_quiver("1>5,2>5,3>5,4>5")  # degree four
    with pytest.raises(QuiverParseError, match="vertices must be positive in token '0>1'"):
        parse_quiver("0>1")


def test_a_large_vertex_label_is_refused_at_once():
    # the gap is found from the number of vertices present, and the message
    # names only the first few missing ones
    with pytest.raises(QuiverParseError, match=r"first \[2, 3, 4\]") as err:
        parse_quiver("1000000000>1")
    assert len(str(err.value)) < 80


@pytest.mark.parametrize(
    "spec, match",
    [
        ("9" * 5000 + ">1", "more than 12 digits"),
        ("1>1" + "0" * 12, "more than 12 digits"),
        ("1" + "0" * 11 + ">1", "vertex gap"),
        ("\u00b2>1", "bad arrow token"),
    ],
    ids=["5000-digits", "13-digits", "12-digits", "superscript-two"],
)
def test_a_label_is_refused_before_int_could_fail_on_it(spec, match):
    # int() cannot read a label past 4,300 digits or a superscript digit, and
    # would raise a plain ValueError; a 12-digit label is still read, and
    # refused as a gap
    with pytest.raises(QuiverParseError, match=match) as err:
        parse_quiver(spec)
    assert len(str(err.value)) < 80


@pytest.mark.parametrize(
    "arrows", [[(1, 2)], [(1, 2), (3, 2), (2, 3)], [(1, 2), (1, 3)]],
    ids=["missing-edge", "edge-twice", "not-an-edge"],
)
def test_quiver_refuses_arrows_that_do_not_orient_the_edges(arrows):
    with pytest.raises(QuiverParseError, match="arrows do not orient the diagram edges"):
        quiver(path_diagram(3), arrows)


def test_spec_roundtrip():
    q = parse_quiver("3>2,1>2")
    assert quiver_spec(q) == "1>2,3>2"


def test_sinks_and_reflection():
    q = parse_quiver("2>1,2>3")
    assert [i for i in (1, 2, 3) if is_sink(q, i)] == [1, 3]
    assert quiver_spec(reflect_sink(q, 1)) == "1>2,2>3"
    q2 = parse_quiver("1>2,3>2")
    assert quiver_spec(reflect_sink(q2, 2)) == "2>1,2>3"
    a2 = parse_quiver("2>1")
    assert quiver_spec(reflect_sink(a2, 1)) == "1>2"
    with pytest.raises(NotASink):
        reflect_sink(q, 2)


def test_adapted_word_golden():
    assert adapted_word(parse_quiver("2>1")) == (1, 2, 1)
    assert adapted_word(parse_quiver("2>1,2>3")) == (1, 3, 2, 1, 3, 2)
    assert adapted_word(parse_quiver("4>3,3>1,3>2")) == (1, 2, 3, 1, 2, 4, 3, 1, 2, 4, 3, 4)


def test_is_adapted():
    a3 = parse_quiver("2>1,2>3")
    assert is_adapted((1, 3, 2, 1, 3, 2), a3)
    assert not is_adapted((2, 1, 3, 2, 1, 3), a3)
    assert not is_adapted((1, 2, 1), parse_quiver("1>2"))


@pytest.mark.parametrize("n", range(1, 7))
def test_adapted_word_is_adapted_everywhere(n):
    for q in all_orientations(path_diagram(n)):
        assert is_adapted(adapted_word(q), q)


@pytest.mark.parametrize(
    "d", [path_diagram(n) for n in range(1, 7)] + [d_diagram(n) for n in (4, 5, 6)],
    ids=lambda d: f"n{d.n}e{len(d.edges)}",
)
def test_walk_matches_the_reflected_quivers(d):
    # the sink test on last occurrences against rebuilding each reflected
    # quiver: adapted words, each one with two adjacent letters swapped, the
    # other orientations' words, and words with a letter out of range
    quivers = all_orientations(d)
    words = [adapted_word(q) for q in quivers]
    for q, word in zip(quivers, words):
        assert word == reference.adapted_word(q)
        assert sink_order(q) == reference.sink_order(q)
        swapped = [word[:k] + (word[k + 1], word[k]) + word[k + 2 :] for k in range(len(word) - 1)]
        out_of_range = [word[:-1] + (0,), (d.n + 1,) + word[1:]]
        for other in words + swapped + out_of_range:
            assert is_adapted(other, q) == reference.is_adapted(other, q)


def test_ringel_matrix_examples():
    assert ringel_matrix(parse_quiver("2>1")) == ((1, 0), (-1, 1))
    q = parse_quiver("2>1,2>3")
    d = q.diagram
    assert ringel_form(q, simple_root(d, 2), simple_root(d, 1)) == -1
    assert ringel_form(q, simple_root(d, 1), simple_root(d, 2)) == 0
    for i in range(1, 4):
        assert ringel_form(q, simple_root(d, i), simple_root(d, i)) == 1


@pytest.mark.parametrize(
    "d", [path_diagram(n) for n in range(1, 7)] + [d_diagram(n) for n in (4, 5, 6)],
    ids=lambda d: f"n{d.n}e{len(d.edges)}",
)
def test_ringel_plus_transpose_is_cartan(d):
    cm = cartan_matrix(d)
    for q in all_orientations(d):
        rm = ringel_matrix(q)
        for i in range(d.n):
            for j in range(d.n):
                assert rm[i][j] + rm[j][i] == cm[i][j]


@pytest.mark.parametrize("n", range(1, 7))
def test_condition_holds_for_all_type_a(n):
    for q in all_orientations(path_diagram(n)):
        assert condition_L(build_ar(q))


def test_condition_d4_scan():
    failing = {
        quiver_spec(q)
        for q in all_orientations(d_diagram(4))
        if not condition_L(build_ar(q))
    }
    # exactly the orientation with the branch vertex as a source fails
    assert failing == {"3>1,3>2,3>4"}
    assert condition_L(build_ar(parse_quiver("4>3,3>1,3>2")))


@pytest.mark.parametrize(
    "d", [path_diagram(n) for n in range(1, 6)] + [d_diagram(4), d_diagram(5)],
    ids=lambda d: f"n{d.n}e{len(d.edges)}",
)
def test_hom_table_matches_the_ringel_form(d):
    # the O(n) column read of hom_to_simple against the n^2 form, behind the same gate
    for q in all_orientations(d):
        ar = build_ar(q)
        assert ar.hom_table() == tuple(
            tuple(reference.hom_to_simple(ar, k, i) for i in range(1, d.n + 1))
            for k in range(1, ar.N + 1)
        )


def test_hom_ext_split_consistency(a3_ar):
    # on comparable pairs the form splits into nonnegative hom and ext parts
    ar = a3_ar
    q = ar.quiver
    for k1 in range(1, ar.N + 1):
        for k2 in range(1, ar.N + 1):
            form = ringel_form(q, ar.root(k1), ar.root(k2))
            if ar.leq(k1, k2):
                assert form >= 0
            elif ar.leq(k2, k1):
                assert -form >= 0


def test_sink_order_a3():
    assert sink_order(parse_quiver("2>1,2>3")) == (1, 3, 2)


def test_coxeter_cycle_golden():
    q = parse_quiver(A4_ZIGZAG)
    assert coxeter_cycle(q) == (1, 3, 5, 4, 2)
    assert segmented_cycle(q, 3) == ((2, 1, 3), (5, 4))
    assert segmented_cycle(q, 1) == ((1,), (3, 5, 4, 2))
    assert segmented_cycle(q, 2) == ((2, 1), (3, 5, 4))
    assert segmented_cycle(q, 4) == ((4, 2, 1, 3), (5,))


def test_segmented_cycle_refuses_an_index_out_of_range():
    q = parse_quiver(A4_ZIGZAG)
    for i in (0, 5):
        with pytest.raises(ValueError, match=f"segment index {i} out of range"):
            segmented_cycle(q, i)


def test_segmented_cycle_rejects_type_d():
    from stringcone.cartan import NotSimplyLacedAD

    q = parse_quiver("4>3,3>1,3>2")
    with pytest.raises(NotSimplyLacedAD):
        coxeter_cycle(q)


@pytest.mark.parametrize("n", range(2, 7))
def test_cycle_agrees_with_permutation(n):
    for q in all_orientations(path_diagram(n)):
        cyc = coxeter_cycle(q)
        perm = coxeter_permutation(q)
        assert sorted(cyc) == list(range(1, n + 2))
        for m in range(n + 1):
            assert perm[cyc[m] - 1] == cyc[(m + 1) % (n + 1)]
        for i in range(1, n + 1):
            left, right = segmented_cycle(q, i)
            assert set(left) == set(range(1, i + 1))
            assert left + right in {cyc[r:] + cyc[:r] for r in range(n + 1)}


def test_single_vertex_quiver():
    from stringcone.quiver import quiver
    from stringcone.cartan import dynkin_diagram

    q = quiver(dynkin_diagram(1, []), [])
    assert adapted_word(q) == (1,)
    assert is_sink(q, 1)


def test_rho_refuses_a_vertex_out_of_range():
    q = parse_quiver("2>1,2>3")
    assert rho(q, 3) == (0, -1, 1)
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"type index {i} out of range 1..3"):
            rho(q, i)


def test_rho_t_refuses_a_vertex_out_of_range():
    q = parse_quiver("2>1,2>3")
    assert rho_t(q, 3) == (0, 0, 1)
    for i in (0, 4):
        with pytest.raises(ValueError, match=f"type index {i} out of range 1..3"):
            rho_t(q, i)
