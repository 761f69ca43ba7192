"""Root systems and Weyl group combinatorics for simply laced types A and D.

Everything is exact integer arithmetic.  Roots are coordinate tuples in the
simple-root basis, weights are coordinate tuples in the fundamental-weight
basis; the two bases are never mixed implicitly.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import mul, sub

Vector = tuple[int, ...]


class NotSimplyLacedAD(ValueError):
    """The diagram is not a connected tree of type A_n or D_n."""


class NotReducedW0(ValueError):
    """The word is not a reduced expression of the longest Weyl element."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed; `witness` holds the data that broke it."""

    def __init__(self, message: str, witness=None) -> None:
        super().__init__(message)
        self.witness = witness


class DynkinDiagram(namedtuple("DynkinDiagram", "n edges")):
    """Tree on vertices 1..n, edges canonically sorted with smaller endpoint first."""

    __slots__ = ()


def dynkin_diagram(n: int, edges) -> DynkinDiagram:
    """Build a validated diagram; anything that is not an A/D tree is rejected."""
    if n < 1:
        raise NotSimplyLacedAD("need at least one vertex")
    canon = tuple(sorted(tuple(sorted(e)) for e in edges))
    if len(set(canon)) != len(canon):
        raise NotSimplyLacedAD("duplicate edge")
    for a, b in canon:
        if a == b:
            raise NotSimplyLacedAD(f"loop at vertex {a}")
        if not (1 <= a <= n and 1 <= b <= n):
            raise NotSimplyLacedAD(f"edge {a}-{b} out of vertex range 1..{n}")
    if len(canon) != n - 1:
        raise NotSimplyLacedAD("not a tree: wrong edge count")
    adj = {v: [] for v in range(1, n + 1)}
    for a, b in canon:
        adj[a].append(b)
        adj[b].append(a)
    seen = {1}
    stack = [1]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        raise NotSimplyLacedAD("not a tree: disconnected")
    branch = [v for v in adj if len(adj[v]) > 2]
    if any(len(adj[v]) > 3 for v in adj) or len(branch) > 1:
        raise NotSimplyLacedAD("vertex degrees admit only types A and D")
    # the branch vertex's legs are paths, of length one exactly at a leaf
    if branch and sum(len(adj[w]) == 1 for w in adj[branch[0]]) < 2:
        raise NotSimplyLacedAD("branch legs admit only type D (two legs of length one)")
    return DynkinDiagram(n, canon)


def path_diagram(n: int) -> DynkinDiagram:
    """Type A_n line diagram 1 - 2 - ... - n."""
    return dynkin_diagram(n, [(i, i + 1) for i in range(1, n)])


def d_diagram(n: int) -> DynkinDiagram:
    """Type D_n with fork vertices 1, 2 joined to 3 and tail 3 - 4 - ... - n."""
    if n < 4:
        raise NotSimplyLacedAD("type D needs rank at least 4")
    edges = [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, n)]
    return dynkin_diagram(n, edges)


def diagram_type(d: DynkinDiagram) -> str:
    degrees = [0] * (d.n + 1)
    for a, b in d.edges:
        degrees[a] += 1
        degrees[b] += 1
    return "D" if any(deg == 3 for deg in degrees) else "A"


@lru_cache(maxsize=None)
def cartan_matrix(d: DynkinDiagram) -> tuple[Vector, ...]:
    rows = [[2 if i == j else 0 for j in range(d.n)] for i in range(d.n)]
    for a, b in d.edges:
        rows[a - 1][b - 1] = -1
        rows[b - 1][a - 1] = -1
    return tuple(tuple(r) for r in rows)


def simple_root(d: DynkinDiagram, i: int) -> Vector:
    _check_letter(d, i)
    return tuple(1 if j == i - 1 else 0 for j in range(d.n))


def root_height(v: Vector) -> int:
    return sum(v)


def _check_letter(d: DynkinDiagram, i: int) -> None:
    if not (1 <= i <= d.n):
        raise ValueError(f"letter {i} out of range 1..{d.n}")


@lru_cache(maxsize=None)
def _cartan_support(d: DynkinDiagram) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Each Cartan row's nonzero entries as (0-based column, entry) pairs."""
    return tuple(tuple((j, c) for j, c in enumerate(row) if c) for row in cartan_matrix(d))


def weyl_act(d: DynkinDiagram, word, v: Vector, basis: str = "root") -> Vector:
    """Apply the group element s_{i1} s_{i2} ... s_{im} to v.

    The last letter acts innermost, so weyl_act(d, (1, 2), v) is s_1(s_2(v)).
    Every letter is checked before any reflection is applied.
    """
    if basis not in ("root", "weight"):
        raise ValueError(f"unknown basis {basis!r}")
    word = tuple(word)[::-1]
    for i in word:
        _check_letter(d, i)
    return _reflect(d, word, v, basis)


def _reflect(d: DynkinDiagram, letters, v: Vector, basis: str) -> Vector:
    """The simple reflections s_i of checked letters applied to v in turn.

    In the root basis s_i lowers coordinate i by the pairing of v with Cartan
    row i; in the weight basis it subtracts v_i times row i (the simple root a_i
    in weight coordinates, the matrix being symmetric).  Either walks only the
    row's nonzero entries.
    """
    support = _cartan_support(d)
    out = list(v)
    if basis == "root":
        for i in letters:
            out[i - 1] -= sum(c * out[j] for j, c in support[i - 1])
    else:
        for i in letters:
            if coef := out[i - 1]:
                for j, c in support[i - 1]:
                    out[j] -= coef * c
    return tuple(out)


def pair_root_weight(root: Vector, weight: Vector) -> int:
    """Cartan pairing of a root (alpha basis) with a weight (omega basis)."""
    return sum(map(mul, root, weight))


@lru_cache(maxsize=None)
def positive_roots(d: DynkinDiagram) -> tuple[Vector, ...]:
    """All positive roots, sorted by height then lexicographically."""
    n = d.n
    expected = n * (n + 1) // 2 if diagram_type(d) == "A" else n * (n - 1)
    found = {simple_root(d, i) for i in range(1, n + 1)}
    frontier = list(found)
    # stop past the count, so a faulty reflection ends in the check below
    while frontier and len(found) <= expected:
        v = frontier.pop()
        for i in range(1, n + 1):
            w = _reflect(d, (i,), v, "root")
            if all(x >= 0 for x in w) and w not in found:
                found.add(w)
                frontier.append(w)
    roots = sorted(found, key=lambda r: (root_height(r), r))
    if len(roots) != expected:
        raise InvariantViolation(
            "wrong number of positive roots", {"found": len(roots), "expected": expected}
        )
    return tuple(roots)


def num_positive_roots(d: DynkinDiagram) -> int:
    return len(positive_roots(d))


def times_simple(d: DynkinDiagram, images, i: int) -> tuple[Vector, ...]:
    """The simple-root images under w s_i, given images[j - 1] = w(a_j).

    w s_i(a_j) = w(a_j) - c_ij w(a_i), which for j = i is -w(a_i).
    """
    base = images[i - 1]
    return tuple(
        tuple(map(sub, img, [c * y for y in base])) if c else img
        for img, c in zip(images, cartan_matrix(d)[i - 1])
    )


def reflection_ordering(d: DynkinDiagram, word) -> tuple[Vector, ...]:
    """Total order b_1, ..., b_N on positive roots induced by a reduced word for w0.

    b_k = s_{i1} ... s_{i(k-1)}(a_{ik}), read off the simple-root images of the
    prefix as the word is walked.  Raises NotReducedW0 unless every letter is
    in range, the word has length N and every b_k is a distinct positive root.
    """
    return _reflection_ordering(d, tuple(word))


@lru_cache(maxsize=1)
def _reflection_ordering(d: DynkinDiagram, word: tuple[int, ...]) -> tuple[Vector, ...]:
    """`reflection_ordering`, keeping the last word's ordering: the translation
    quiver and the wiring diagram of one word read it one after the other.  A
    raised error is not cached."""
    for i in word:
        if not (1 <= i <= d.n):
            raise NotReducedW0(f"letter {i} out of range 1..{d.n}")
    n_pos = num_positive_roots(d)
    if len(word) != n_pos:
        raise NotReducedW0(f"word length {len(word)} != {n_pos} positive roots")
    betas = []
    images = tuple(simple_root(d, j) for j in range(1, d.n + 1))
    for k, i in enumerate(word, start=1):
        beta = images[i - 1]
        if any(x < 0 for x in beta):
            raise NotReducedW0(f"prefix of length {k} is not reduced")
        betas.append(beta)
        images = times_simple(d, images, i)
    if len(set(betas)) != n_pos:
        raise NotReducedW0("repeated root in the induced ordering")
    return tuple(betas)


def is_reduced_w0(d: DynkinDiagram, word) -> bool:
    try:
        reflection_ordering(d, word)
    except NotReducedW0:
        return False
    return True


def longest_word(d: DynkinDiagram) -> tuple[int, ...]:
    """A canonical reduced word for w0 (greedy smallest extendable letter)."""
    images = tuple(simple_root(d, j) for j in range(1, d.n + 1))
    word: list[int] = []
    while len(word) <= num_positive_roots(d):  # one letter past N already fails
        ext = [i for i in range(1, d.n + 1) if all(x >= 0 for x in images[i - 1])]
        if not ext:
            break
        i = min(ext)
        word.append(i)
        images = times_simple(d, images, i)
    if len(word) != num_positive_roots(d):
        raise InvariantViolation("greedy word for w0 has the wrong length", {"word": word})
    return tuple(word)


@lru_cache(maxsize=None)
def w0_involution(d: DynkinDiagram) -> tuple[int, ...]:
    """The diagram automorphism i -> i* with w0(a_i) = -a_{i*}, as a tuple."""
    word = longest_word(d)
    out = []
    for i in range(1, d.n + 1):
        img = weyl_act(d, word, simple_root(d, i))
        neg = tuple(-x for x in img)
        if root_height(neg) != 1:
            raise InvariantViolation(
                "w0 does not negate a simple root", {"letter": i, "image": img}
            )
        out.append(neg.index(1) + 1)
    return tuple(out)
