"""Independent reference implementations that the tests compare the package with.

Each is written from its definition, not from the code it checks.  Outside the
test modules `assert` statements vanish under `python -O`, so nothing here
asserts: a reference only computes.
"""

from itertools import product

from stringcone.cartan import (
    NotSimplyLacedAD,
    cartan_matrix,
    diagram_type,
    num_positive_roots,
    positive_roots,
    weyl_act,
)
from stringcone.quiver import sink_order


def cone_points(normals, box: int, dim: int) -> frozenset[tuple[int, ...]]:
    """Integer points of the box [0..box]^dim satisfying every inequality, by a full scan."""
    normals = [tuple(v) for v in normals]
    return frozenset(
        a
        for a in product(range(box + 1), repeat=dim)
        if all(sum(c * x for c, x in zip(normal, a)) >= 0 for normal in normals)
    )


def alpha_to_omega(d, v):
    """Convert simple-root coordinates to fundamental-weight coordinates."""
    cm = cartan_matrix(d)
    return tuple(sum(cm[i][j] * v[j] for j in range(d.n)) for i in range(d.n))


def coxeter_permutation(q) -> tuple[int, ...]:
    """Type A only: the Coxeter element as a permutation of 1..n+1 (images tuple)."""
    if diagram_type(q.diagram) != "A":
        raise NotSimplyLacedAD("permutation form is a type A construction")
    perm = list(range(q.diagram.n + 2))
    for i in sink_order(q):
        # first sink acts innermost: post-compose with the transposition (i, i+1)
        perm = [i + 1 if x == i else i if x == i + 1 else x for x in perm]
    return tuple(perm[1:])


def is_reduced_w0(d, word) -> bool:
    """w0 is the only Weyl element sending every positive root to a negative one,
    and a word of length N for it is reduced."""
    word = tuple(word)
    if len(word) != num_positive_roots(d) or not all(1 <= i <= d.n for i in word):
        return False
    return all(all(x <= 0 for x in weyl_act(d, word, beta)) for beta in positive_roots(d))
