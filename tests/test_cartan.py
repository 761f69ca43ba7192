import re
from itertools import product

import pytest
from hypothesis import given, strategies as st

from stringcone.cartan import (
    NotReducedW0,
    NotSimplyLacedAD,
    cartan_matrix,
    d_diagram,
    diagram_type,
    dynkin_diagram,
    is_reduced_w0,
    longest_word,
    num_positive_roots,
    path_diagram,
    positive_roots,
    reflection_ordering,
    root_height,
    simple_root,
    w0_involution,
    weyl_act,
)
from stringcone.quiver import adapted_word, all_orientations

import reference
from reference import alpha_to_omega
from test_verify import _adapted_words

ALL_SMALL_DIAGRAMS = [path_diagram(n) for n in range(1, 7)] + [d_diagram(n) for n in (4, 5, 6)]


def test_diagram_classification():
    assert diagram_type(path_diagram(3)) == "A"
    assert diagram_type(d_diagram(4)) == "D"
    assert diagram_type(d_diagram(6)) == "D"


def test_diagram_rejections():
    with pytest.raises(NotSimplyLacedAD):
        dynkin_diagram(3, [(1, 2)])  # too few edges
    with pytest.raises(NotSimplyLacedAD):
        dynkin_diagram(3, [(1, 2), (2, 3), (1, 3)])  # cycle
    with pytest.raises(NotSimplyLacedAD):
        dynkin_diagram(5, [(1, 5), (2, 5), (3, 5), (4, 5)])  # degree four
    with pytest.raises(NotSimplyLacedAD, match=re.escape("branch legs admit only type D")):
        # two legs of length two at the branch vertex: the E6 tree
        dynkin_diagram(6, [(1, 2), (2, 3), (3, 4), (4, 5), (3, 6)])
    with pytest.raises(NotSimplyLacedAD, match="type D needs rank at least 4"):
        d_diagram(3)
    for n, edges, message in (
        (0, [], "need at least one vertex"),
        (3, [(1, 2), (2, 1)], "duplicate edge"),
        (2, [(2, 2)], "loop at vertex 2"),
        (3, [(1, 2), (2, 4)], "edge 2-4 out of vertex range 1..3"),
        (4, [(1, 2), (2, 3), (1, 3)], "not a tree: disconnected"),  # n - 1 edges
    ):
        with pytest.raises(NotSimplyLacedAD, match=re.escape(message)):
            dynkin_diagram(n, edges)


def _labelled_trees(n):
    """Every tree on the vertices 1..n, decoded from its Pruefer sequence."""
    if n == 1:
        yield ()
        return
    for sequence in product(range(1, n + 1), repeat=n - 2):
        degree = [1] * (n + 1)
        for v in sequence:
            degree[v] += 1
        edges = []
        for v in sequence:
            leaf = degree.index(1, 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u = degree.index(1, 1)
        edges.append((u, degree.index(1, u + 1)))
        yield tuple(edges)


def test_dynkin_diagram_accepts_exactly_the_a_and_d_trees():
    # every labelled tree on 1-7 vertices: n^(n-2) of them, 18,249 in all
    legs = "branch legs admit only type D (two legs of length one)"
    degrees = "vertex degrees admit only types A and D"
    seen = accepted = 0
    for n in range(1, 8):
        for edges in _labelled_trees(n):
            seen += 1
            try:
                dynkin_diagram(n, edges)
            except NotSimplyLacedAD as exc:
                assert str(exc) in (legs, degrees)
                assert not reference.is_ad_tree(n, edges), edges
            else:
                accepted += 1
                assert reference.is_ad_tree(n, edges), edges
    assert (seen, accepted) == (18249, 5901)


def test_edge_canonicalization():
    d = dynkin_diagram(3, [(3, 2), (2, 1)])
    assert d.edges == ((1, 2), (2, 3))


def test_positive_root_counts():
    assert len(positive_roots(path_diagram(2))) == 3
    assert len(positive_roots(path_diagram(4))) == 10
    assert len(positive_roots(d_diagram(4))) == 12


def test_a2_roots():
    assert positive_roots(path_diagram(2)) == ((0, 1), (1, 0), (1, 1))


def test_a4_roots_are_intervals():
    for root in positive_roots(path_diagram(4)):
        support = [i for i, c in enumerate(root) if c]
        assert all(c == 1 for c in root if c)
        assert support == list(range(support[0], support[-1] + 1))


def test_d4_contains_doubled_root():
    assert (1, 1, 2, 1) in positive_roots(d_diagram(4))


def test_root_order_is_height_then_lex():
    roots = positive_roots(d_diagram(4))
    keys = [(root_height(r), r) for r in roots]
    assert keys == sorted(keys)


def test_weyl_act_rank_two():
    d = path_diagram(2)
    assert weyl_act(d, (1,), simple_root(d, 2)) == (1, 1)
    assert weyl_act(d, (1, 2), simple_root(d, 1)) == (0, 1)


def test_weyl_act_on_weight():
    for d in (path_diagram(3), d_diagram(4)):
        for i in range(1, d.n + 1):
            got = weyl_act(d, (i,), simple_root(d, i), basis="weight")
            alpha_omega = alpha_to_omega(d, simple_root(d, i))
            assert got == tuple(w - a for w, a in zip(simple_root(d, i), alpha_omega))


def test_weyl_act_letter_range():
    with pytest.raises(ValueError):
        weyl_act(path_diagram(2), (3,), (1, 0))
    with pytest.raises(ValueError, match="unknown basis 'x'"):
        weyl_act(path_diagram(2), (1,), (1, 0), basis="x")


def test_reflection_ordering_a2():
    d = path_diagram(2)
    assert reflection_ordering(d, (1, 2, 1)) == ((1, 0), (1, 1), (0, 1))


def test_reflection_ordering_a3():
    d = path_diagram(3)
    expected = ((1, 0, 0), (0, 0, 1), (1, 1, 1), (0, 1, 1), (1, 1, 0), (0, 1, 0))
    assert reflection_ordering(d, (1, 3, 2, 1, 3, 2)) == expected


def test_reflection_ordering_d4_golden():
    d = d_diagram(4)
    expected = (
        (1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 1, 0), (0, 1, 1, 0),
        (1, 0, 1, 0), (1, 1, 1, 1), (1, 1, 2, 1), (1, 0, 1, 1),
        (0, 1, 1, 1), (0, 0, 1, 0), (0, 0, 1, 1), (0, 0, 0, 1),
    )
    assert reflection_ordering(d, (1, 2, 3, 1, 2, 4, 3, 1, 2, 4, 3, 4)) == expected


def test_reflection_ordering_rejects_bad_words():
    d = path_diagram(2)
    with pytest.raises(NotReducedW0):
        reflection_ordering(d, (1, 2))  # wrong length
    with pytest.raises(NotReducedW0):
        reflection_ordering(d, (1, 1, 2))  # immediate repeat is not reduced


def test_w0_involution_golden():
    assert w0_involution(path_diagram(2)) == (2, 1)
    assert w0_involution(path_diagram(3)) == (3, 2, 1)
    assert w0_involution(d_diagram(4)) == (1, 2, 3, 4)
    assert w0_involution(d_diagram(5)) == (2, 1, 3, 4, 5)


@pytest.mark.parametrize("d", ALL_SMALL_DIAGRAMS, ids=lambda d: f"{diagram_type(d)}{d.n}")
def test_longest_word_sends_simples_to_negated_duals(d):
    invol = w0_involution(d)
    for q in all_orientations(d):
        word = adapted_word(q)
        for i in range(1, d.n + 1):
            image = weyl_act(d, word, simple_root(d, i))
            assert image == tuple(-x for x in simple_root(d, invol[i - 1]))


@pytest.mark.parametrize("d", ALL_SMALL_DIAGRAMS, ids=lambda d: f"{diagram_type(d)}{d.n}")
def test_reflection_ordering_is_bijection_onto_positive_roots(d):
    for q in all_orientations(d):
        betas = reflection_ordering(d, adapted_word(q))
        assert sorted(betas) == sorted(positive_roots(d))
    assert len(longest_word(d)) == num_positive_roots(d)


@given(st.data())
def test_basis_conversion_roundtrip(data):
    # the two bases are intertwined by every reflection: reflect_weight against reflect_root
    d = data.draw(st.sampled_from(ALL_SMALL_DIAGRAMS))
    i = data.draw(st.integers(1, d.n))
    vec = tuple(data.draw(st.integers(-5, 5)) for _ in range(d.n))
    got = weyl_act(d, (i,), alpha_to_omega(d, vec), basis="weight")
    assert got == alpha_to_omega(d, weyl_act(d, (i,), vec))


@given(st.data())
def test_reflect_weight_matches_the_alpha_to_omega_route(data):
    d = data.draw(st.sampled_from(ALL_SMALL_DIAGRAMS[:6] + [d_diagram(4), d_diagram(5)]))
    vec = tuple(data.draw(st.integers(-5, 5)) for _ in range(d.n))
    for i in range(1, d.n + 1):
        assert weyl_act(d, (i,), vec, "weight") == reference.reflect_weight(d, i, vec)


@given(st.data())
def test_reflections_are_involutions(data):
    d = data.draw(st.sampled_from(ALL_SMALL_DIAGRAMS))
    i = data.draw(st.integers(1, d.n))
    vec = tuple(data.draw(st.integers(-4, 4)) for _ in range(d.n))
    assert weyl_act(d, (i, i), vec) == vec
    assert weyl_act(d, (i, i), vec, basis="weight") == vec


def _composed_reflections(d, word, v, basis):
    """The reference reflections of the word's letters, the last letter first."""
    reflect = reference.reflect_root if basis == "root" else reference.reflect_weight
    for i in reversed(word):
        v = reflect(d, i, v)
    return tuple(v)


@given(st.data())
def test_weyl_act_matches_composed_reference_reflections(data):
    # up to two letters out of range, at any positions: both routes then refuse
    # the one nearest the end, with the same message
    d = data.draw(st.sampled_from(ALL_SMALL_DIAGRAMS))
    word = data.draw(st.lists(st.integers(1, d.n), max_size=12))
    if word:
        for k in data.draw(st.lists(st.integers(0, len(word) - 1), max_size=2)):
            word[k] = data.draw(st.sampled_from([-1, 0, d.n + 1]))
    vec = tuple(data.draw(st.integers(-5, 5)) for _ in range(d.n))
    basis = data.draw(st.sampled_from(["root", "weight"]))
    try:
        expected = _composed_reflections(d, word, vec, basis)
    except ValueError as err:
        with pytest.raises(ValueError, match=re.escape(str(err))):
            weyl_act(d, word, vec, basis)
    else:
        assert weyl_act(d, word, vec, basis) == expected


def test_reflection_ordering_is_computed_once_per_word_and_refusals_every_time():
    d = path_diagram(4)
    word = longest_word(d)
    assert reflection_ordering(d, word) is reflection_ordering(d, list(word))
    for _ in range(2):
        with pytest.raises(NotReducedW0, match="letter 5 out of range"):
            reflection_ordering(d, (5, *word[1:]))


def test_pairing_consistency_on_roots():
    for d in ALL_SMALL_DIAGRAMS:
        cm = cartan_matrix(d)
        for beta in positive_roots(d):
            omega = alpha_to_omega(d, beta)
            for i in range(d.n):
                assert omega[i] == sum(cm[i][j] * beta[j] for j in range(d.n))


@pytest.mark.parametrize("d", ALL_SMALL_DIAGRAMS, ids=lambda d: f"{diagram_type(d)}{d.n}")
def test_reflection_ordering_matches_prefix_action(d):
    words = [adapted_word(q) for q in all_orientations(d)] + [longest_word(d)]
    for w in words:
        betas = reflection_ordering(d, w)
        for k in range(len(w)):
            assert betas[k] == weyl_act(d, w[:k], simple_root(d, w[k]))


@given(st.data())
def test_is_reduced_w0_matches_reference(data):
    d = data.draw(st.sampled_from(ALL_SMALL_DIAGRAMS[:4] + [d_diagram(4)]))
    N = num_positive_roots(d)
    if data.draw(st.booleans()):
        word = list(data.draw(st.sampled_from([adapted_word(q) for q in all_orientations(d)])))
        for k in data.draw(st.lists(st.integers(0, N - 1), max_size=2)):
            word[k] = data.draw(st.integers(0, d.n + 1))
    else:
        word = data.draw(st.lists(st.integers(1, d.n), min_size=N, max_size=N))
    assert is_reduced_w0(d, word) == reference.is_reduced_w0(d, word)


@pytest.mark.parametrize(
    "d", ALL_SMALL_DIAGRAMS[:6] + [d_diagram(4), d_diagram(5)],
    ids=lambda d: f"{diagram_type(d)}{d.n}",
)
def test_adapted_word_is_first_adapted_word(d):
    for q in all_orientations(d):
        assert adapted_word(q) == _adapted_words(q, 1)[0]
