"""Quiver orientations, adapted words, and the Ringel form.

Also houses the Coxeter element machinery: the sink order, its action on
roots and weights, and in type A the cycle built by left/right insertion
together with its segmented rewritings.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .cartan import (
    DynkinDiagram,
    InvariantViolation,
    NotSimplyLacedAD,
    Vector,
    diagram_type,
    dynkin_diagram,
    num_positive_roots,
    simple_root,
    times_simple,
    weyl_act,
)


class QuiverParseError(ValueError):
    """Malformed quiver specification text."""


class NotAdapted(ValueError):
    """The word is not adapted to the quiver."""


class Quiver(NamedTuple):
    """An orientation of an A/D tree; arrows are (source, target) pairs."""

    diagram: DynkinDiagram
    arrows: tuple[tuple[int, int], ...]


def quiver(diagram: DynkinDiagram, arrows) -> Quiver:
    canon = tuple(sorted(tuple(a) for a in arrows))
    undirected = tuple(sorted(tuple(sorted(a)) for a in canon))
    if undirected != diagram.edges:
        raise QuiverParseError("arrows do not orient the diagram edges exactly once each")
    return Quiver(diagram, canon)


def parse_quiver(text: str) -> Quiver:
    """Parse "a>b,c>d,..." (whitespace insensitive) into a quiver on vertices 1..n."""
    spec = "".join(text.split())
    if not spec:
        raise QuiverParseError("empty quiver specification")
    arrows = []
    for token in spec.split(","):
        parts = token.split(">")
        if len(parts) != 2 or not parts[0].isdigit() or not parts[1].isdigit():
            raise QuiverParseError(f"bad arrow token {token!r}, expected 'a>b'")
        a, b = int(parts[0]), int(parts[1])
        if a < 1 or b < 1:
            raise QuiverParseError(f"vertices must be positive in token {token!r}")
        arrows.append((a, b))
    n = max(max(a, b) for a, b in arrows)
    present = {v for arrow in arrows for v in arrow}
    missing = sorted(set(range(1, n + 1)) - present)
    if missing:
        raise QuiverParseError(f"vertex gap: {missing} missing below {n}")
    try:
        diagram = dynkin_diagram(n, [tuple(sorted(a)) for a in arrows])
    except NotSimplyLacedAD as exc:
        raise QuiverParseError(str(exc)) from exc
    return quiver(diagram, arrows)


def quiver_spec(q: Quiver) -> str:
    return ",".join(f"{a}>{b}" for a, b in q.arrows)


def all_orientations(diagram: DynkinDiagram) -> tuple[Quiver, ...]:
    """Every orientation of the diagram, in a canonical order."""
    quivers = []
    m = len(diagram.edges)
    for bits in range(1 << m):
        arrows = [
            (a, b) if bits >> k & 1 == 0 else (b, a)
            for k, (a, b) in enumerate(diagram.edges)
        ]
        quivers.append(quiver(diagram, arrows))
    return tuple(sorted(quivers))


@lru_cache(maxsize=None)
def adjacency(q: Quiver) -> tuple[tuple[tuple[int, bool], ...], ...]:
    """Index i-1: each neighbour j of vertex i, with whether q has the arrow j -> i."""
    return tuple(
        tuple((a if b == i else b, b == i) for a, b in q.arrows if i in (a, b))
        for i in range(1, q.diagram.n + 1)
    )


def _sink_after(q: Quiver, last: list[int], i: int) -> bool:
    """Whether i is a sink of q reflected at the letters of a prefix, each a
    sink in turn, where last[v] is v's last position in the prefix or 0.
    Reflecting at a sink turns its edges outward, so an edge points away from
    whichever end was reflected later, and keeps q's direction while neither
    end has been."""
    li = last[i]
    return all(last[j] > li or (into and last[j] == li) for j, into in adjacency(q)[i - 1])


def adapted_word(q: Quiver) -> tuple[int, ...]:
    """Canonical adapted reduced word for w0.

    Greedy: always take the smallest sink of the reflected quiver whose
    simple root keeps the prefix reduced, then reflect at it.
    """
    d = q.diagram
    images = tuple(simple_root(d, j) for j in range(1, d.n + 1))
    word: list[int] = []
    last = [0] * (d.n + 1)
    n_pos = num_positive_roots(d)
    while len(word) < n_pos:
        for i in range(1, d.n + 1):
            if _sink_after(q, last, i) and all(x >= 0 for x in images[i - 1]):
                break
        else:
            raise InvariantViolation("no admissible sink", {"word": tuple(word)})
        word.append(i)
        last[i] = len(word)
        images = times_simple(d, images, i)
    return tuple(word)


def is_adapted(word, q: Quiver) -> bool:
    """True iff each letter is a sink of the successively reflected quiver."""
    n = q.diagram.n
    last = [0] * (n + 1)
    for k, i in enumerate(word, start=1):
        if not (1 <= i <= n) or not _sink_after(q, last, i):
            return False
        last[i] = k
    return True


@lru_cache(maxsize=None)
def ringel_matrix(q: Quiver) -> tuple[Vector, ...]:
    """Matrix of the homological bilinear form: 1 on the diagonal, -1 on arrows."""
    n = q.diagram.n
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for a, b in q.arrows:
        rows[a - 1][b - 1] = -1
    return tuple(tuple(r) for r in rows)


@lru_cache(maxsize=None)
def _ringel_columns(q: Quiver) -> tuple[Vector, ...]:
    """The columns of `ringel_matrix(q)`, built once per quiver."""
    return tuple(zip(*ringel_matrix(q)))


def check_vertex(q: Quiver, i: int) -> None:
    """Raise ValueError unless i is a vertex 1..n of q."""
    if not 1 <= i <= q.diagram.n:
        raise ValueError(f"type index {i} out of range 1..{q.diagram.n}")


def rho(q: Quiver, i: int) -> Vector:
    """Weight whose omega coordinates are the i-th column of the Ringel matrix."""
    check_vertex(q, i)
    return _ringel_columns(q)[i - 1]


def rho_t(q: Quiver, i: int) -> Vector:
    """Weight whose omega coordinates are the i-th row of the Ringel matrix."""
    check_vertex(q, i)
    return tuple(ringel_matrix(q)[i - 1])


def phi_R(q: Quiver, root: Vector) -> Vector:
    """Linear map sending each simple root a_i to -rho_i, evaluated on a root."""
    n = q.diagram.n
    out = [0] * n
    for m, r in zip(root, _ringel_columns(q)):
        if m:
            for k in range(n):
                out[k] -= m * r[k]
    return tuple(out)


@lru_cache(maxsize=None)
def sink_order(q: Quiver) -> tuple[int, ...]:
    """Each vertex once, always the smallest available sink of the reflected quiver."""
    n = q.diagram.n
    last = [0] * (n + 1)
    order = []
    for k in range(1, n + 1):
        i = next(v for v in range(1, n + 1) if not last[v] and _sink_after(q, last, v))
        order.append(i)
        last[i] = k
    return tuple(order)


def coxeter_act_root(q: Quiver, v: Vector) -> Vector:
    """Coxeter element action on a root: sink-order word, first letter innermost."""
    return weyl_act(q.diagram, sink_order(q)[::-1], v)


def coxeter_act_weight(q: Quiver, v: Vector) -> Vector:
    return weyl_act(q.diagram, sink_order(q)[::-1], v, basis="weight")


def coxeter_cycle(q: Quiver) -> tuple[int, ...]:
    """Type A only: the (n+1)-cycle of the Coxeter element, by left/right insertion.

    Working down from vertex n, the value i goes right of everything written
    so far when the edge is i-1 <- i, left when it is i-1 -> i; finally 1 goes
    on the far left.
    """
    if diagram_type(q.diagram) != "A":
        raise NotSimplyLacedAD("Coxeter cycles are a type A construction")
    n = q.diagram.n
    seq = [n + 1]
    arrows = set(q.arrows)
    for i in range(n, 1, -1):
        if (i, i - 1) in arrows:
            seq.append(i)
        else:
            seq.insert(0, i)
    seq.insert(0, 1)
    return tuple(seq)


def segmented_cycle(q: Quiver, i: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Rotate the cycle so positions 1..i hold {1..i} and the rest hold {i+1..n+1}."""
    cyc = coxeter_cycle(q)
    n1 = len(cyc)
    if not (1 <= i <= q.diagram.n):
        raise ValueError(f"segment index {i} out of range")
    low = set(range(1, i + 1))
    for r in range(n1):
        rot = cyc[r:] + cyc[:r]
        if set(rot[:i]) == low:
            return rot[:i], rot[i:]
    raise InvariantViolation(
        "no segmented rotation of the insertion cycle", {"cycle": cyc, "i": i}
    )


def condition_L(ar) -> bool:
    """Every indecomposable maps to each simple with multiplicity at most one.

    Read from the table of `hom_to_simple` values of `ar`, the translation
    quiver of the quiver tested: the map space dimension from the module of
    root b to the simple at i is (b, a_i)_R when the module precedes the simple
    in the translation quiver order, and 0 otherwise.
    """
    return all(x <= 1 for row in ar.hom_table() for x in row)


def hom_to_simple(ar, k: int, i: int) -> int:
    """(b, a_i)_R for the root b at position k of `ar` when k precedes the simple
    at i, else 0.  Pairing with a_i reads column i of the Ringel matrix."""
    if not ar.leq(k, ar.simple_positions[i - 1]):
        return 0
    return sum(b * c for b, c in zip(ar.root(k), _ringel_columns(ar.quiver)[i - 1]))
