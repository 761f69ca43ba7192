"""Independent reference implementations that the tests compare the package with.

Each is written from its definition, not from the code it checks.  Outside the
test modules `assert` statements vanish under `python -O`, so nothing here
asserts: a reference only computes.
"""

from itertools import product
from typing import NamedTuple

from stringcone.cartan import (
    NotSimplyLacedAD,
    cartan_matrix,
    diagram_type,
    num_positive_roots,
    positive_roots,
    weyl_act,
)
from stringcone.quiver import hom_to_simple, sink_order


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


def _poset(ar, i) -> list[int]:
    """Positions whose module has a nonzero map to the simple at i."""
    return [k for k in range(1, ar.N + 1) if hom_to_simple(ar.quiver, ar, k, i) > 0]


def ideal(ar, a) -> tuple[int, ...]:
    """Elements of the type poset lying below some element of the antichain."""
    return tuple(x for x in _poset(ar, a.type_index) if any(ar.leq(x, top) for top in a.positions))


def cominimals(ar, a) -> tuple[int, ...]:
    """Elements outside the ideal with nothing else outside the ideal below them."""
    below = set(ideal(ar, a))
    rest = [x for x in _poset(ar, a.type_index) if x not in below]
    return tuple(x for x in rest if all(y == x or not ar.leq(y, x) for y in rest))


def move(ar, a) -> tuple[int, ...]:
    """+1 on the antichain, -1 on the translate of each complement minimal that has one."""
    return tuple(
        (k in a.positions) - sum(ar.tau.get(m) == k for m in cominimals(ar, a))
        for k in range(1, ar.N + 1)
    )


class Chamber(NamedTuple):
    band: int
    label: frozenset[int]
    left_cap: int | None  # None on the left border
    right_cap: int | None  # None on the right border
    corners: frozenset[int]


def chambers(word, n: int) -> list[Chamber]:
    """Type A wiring chambers, band by band: the gaps between two consecutive
    caps (crossings at the band's level, or a border), labelled by the wires
    on tracks 1..band at the left gap, with the crossings on their boundary."""
    word = tuple(word)
    N = len(word)
    tracks = [list(range(1, n + 2))]  # wires per track after each letter
    for t in word:
        row = list(tracks[-1])
        row[t - 1], row[t] = row[t], row[t - 1]
        tracks.append(row)
    out = []
    for band in range(1, n + 1):
        caps = [0] + [k for k in range(1, N + 1) if word[k - 1] == band] + [N + 1]
        for lo, hi in zip(caps, caps[1:]):
            left = lo if lo > 0 else None
            right = hi if hi <= N else None
            corners = {c for c in (left, right) if c is not None}
            corners |= {p for p in range(lo + 1, hi) if word[p - 1] in (band - 1, band + 1)}
            label = frozenset(tracks[lo][:band])
            out.append(Chamber(band, label, left, right, frozenset(corners)))
    return out
