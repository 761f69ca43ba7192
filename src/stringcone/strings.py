"""String parametrization: raising/lowering operators, the embedding membership
test, brute-force string-set generation, and integer cone point utilities.

The three box kernels (`generate_strings`, `strings_in_box`,
`cone_points_pruned`) return the integer codes of their points (see
`_weights`); `points` is the one decoder.  The raising closure and the lowering
filter are two tie tables for one box search, `_closure`; in a simply-laced
type (c_ii = 2, the only types the package builds) the tables coincide, so one
search serves both.  The independent per-point pin of the lowering rule is
`is_string`, through the tests' full-box scans: A1-A3 at box 3 where the box
has at most 5,000 points, D4 at box 1, and ranks up to 2 at boxes 3-4."""

from __future__ import annotations

from functools import lru_cache

from .cartan import DynkinDiagram, cartan_matrix
from .crystal import CrystalGraph, bfs_crystal


class LetterAbsent(ValueError):
    """No position of the word carries the requested letter."""


@lru_cache(maxsize=16)
def _layout(d: DynkinDiagram, word: tuple[int, ...]):
    """The positions of each letter (one tuple per letter, letters ascending,
    positions ascending), and for each position j the pairs (k, c_{i_j, i_k})
    with k > j and a nonzero entry.  Both are tuples, built once per (diagram,
    word) and shared by every caller: both searches of a cone check, and every
    point of an is_string scan."""
    cm = cartan_matrix(d)
    groups = tuple(
        tuple(k for k, letter in enumerate(word) if letter == i) for i in sorted(set(word))
    )
    rows = tuple(
        tuple((k, cm[ij - 1][ik - 1]) for k, ik in enumerate(word) if k > j and cm[ij - 1][ik - 1])
        for j, ij in enumerate(word)
    )
    return groups, rows


def _bump(r: list[int], row, j: int, delta: int) -> list[int]:
    """Update r in place for a_j += delta, and return it; row is position j's layout row."""
    r[j] += delta
    for k, c in row:
        r[k] += delta * c
    return r


def _argmax(r, positions) -> int:
    """First of the positions, in the order given, where r is maximal."""
    return max(positions, key=r.__getitem__)


def _shift(a: tuple[int, ...], k: int, delta: int) -> tuple[int, ...]:
    return a[:k] + (a[k] + delta,) + a[k + 1:]


def _check_length(a, word) -> None:
    if len(a) != len(word):
        raise ValueError(f"string vector has {len(a)} entries, not one per letter: {len(word)}")


def _r_vector(rows, a) -> list[int]:
    _check_length(a, rows)
    r = [0] * len(rows)
    for j, x in enumerate(a):
        _bump(r, rows[j], j, x)
    return r


def string_r(d: DynkinDiagram, word, a) -> tuple[int, ...]:
    """r_k = a_k + sum_{j<k} c_{i_j, i_k} a_j."""
    return tuple(_r_vector(_layout(d, tuple(word))[1], a))


def _max_position(d: DynkinDiagram, word, i: int, a, last: bool) -> tuple[int, int]:
    """The first (or last) position of letter i where r is maximal, and that maximum."""
    word = tuple(word)
    ps = [k for k, letter in enumerate(word) if letter == i]
    if not ps:
        raise LetterAbsent(f"letter {i} does not occur in the word")
    r = _r_vector(_layout(d, word)[1], a)
    k = _argmax(r, reversed(ps) if last else ps)
    return k, r[k]


def string_e(d: DynkinDiagram, word, i: int, a) -> tuple[int, ...]:
    """Raise at the last position where the running maximum is attained."""
    return _shift(tuple(a), _max_position(d, word, i, a, last=True)[0], 1)


def string_f(d: DynkinDiagram, word, i: int, a):
    """Lower at the first maximum position; None when the maximum is not positive.

    A maximum of zero means the point is the bottom of its i-string: lowering
    there leaves the image even when the entry is nonzero.  A zero entry also
    gives None, which only happens off the image.
    """
    k, top = _max_position(d, word, i, a, last=False)
    return _shift(tuple(a), k, -1) if top > 0 and a[k] else None


def is_string(d: DynkinDiagram, word, a) -> bool:
    """Membership test for the embedded crystal image, by lowering to zero.

    The image is the raising-closure of the zero vector, and lowering undoes
    raising exactly wherever it is defined; so a nonzero point lies in the
    image iff some applicable lowering does (the last raising edge of any
    witnessing path can be peeled off), that is iff zero is reached by
    lowering.  Search the lowerings depth first on an explicit stack, carrying
    r along each lowering step; a point met again is already searched or
    waiting on the stack, so each point is searched once.
    """
    word = tuple(word)
    a = tuple(a)
    groups, rows = _layout(d, word)
    r = _r_vector(rows, a)
    if any(x < 0 for x in a):
        return False
    zero = (0,) * len(word)
    seen = {a}
    stack = [(a, r)]
    while stack:
        v, r = stack.pop()
        if v == zero:
            return True
        # pushed last letter first, so the first letter's lowering is searched first
        for ps in reversed(groups):
            k = _argmax(r, ps)
            if v[k]:
                u = _shift(v, k, -1)
                if u not in seen:
                    seen.add(u)
                    stack.append((u, _bump(r.copy(), rows[k], k, -1)))
    return False


def _weights(n: int, box: int) -> list[int]:
    """The place value of each coordinate in a point's integer code: the code of
    a in [0..box]^n is sum_k a_k * (box+1)^k, one code per point of the box, and
    raising a_k adds weight[k] to it."""
    return [(box + 1) ** k for k in range(n)]


@lru_cache(maxsize=1)
def _closure(rows, ties, box: int) -> frozenset[int]:
    """The codes (see `_weights`) of the points of [0..box]^N reached from zero
    by steps a -> a + e_k with a_k < box and r(a)_p + offset <= r(a)_k for every
    (p, offset) in `ties[k]`: the one box search behind both string kernels,
    which differ only in how they build their tie tables.

    The result is kept for the last (rows, ties, box), all tuples: in a
    simply-laced type both kernels build the same table, so the second search
    of a cone check returns the first one's set.  A table built by a wrong rule
    is another key and gets its own search.

    Each point of the search is its code and one list, r in slots 0..N-1 and a
    in slots N..2N-1; a stepped-to point is looked up by its code among the
    codes found so far, and only a new one gets a list: a copy with r's row
    bumped and slot N+k raised.  The work is |points| * N, not the (box+1)^N of
    a scan.
    """
    if box < 0:
        return frozenset()  # [0..box]^N has no points
    n = len(rows)
    weight = _weights(n, box)
    codes = {0}
    stack = [(0, [0] * (2 * n))]
    while stack:
        code, s = stack.pop()
        for k, tie in enumerate(ties):
            if s[n + k] < box:
                top = s[k]
                for p, offset in tie:
                    if s[p] + offset > top:
                        break
                else:
                    c = code + weight[k]
                    if c not in codes:
                        codes.add(c)
                        t = s.copy()
                        t[n + k] += 1
                        stack.append((c, _bump(t, rows[k], k, 1)))
    return frozenset(codes)


def strings_in_box(d: DynkinDiagram, word, box: int) -> frozenset[int]:
    """The codes (see `_weights`) of the points of [0..box]^N that is_string
    accepts, searched upward from zero.

    A nonzero point b is a string iff some lowering of b is defined and lands on
    a string, and a lowering that subtracts e_k is b's first maximum of r among
    the positions of letter word[k].  So from each accepted a, the point
    b = a + e_k is accepted exactly when k is that first maximum of r(b): the
    lowering tie rule applied at b, never the raising rule at a.

    The rule is read on r(a) at the letter's positions.  Raising a_k adds a
    fixed step d_p to each r_p, so k is the first maximum of r(b) iff
    r(a)_p + d_p - d_k + 1 <= r(a)_k at each earlier position p of the letter
    and r(a)_p + d_p - d_k <= r(a)_k at each later one; `ties[k]` holds these
    (p, offset) pairs for `_closure`.

    With c_ii = 2, d_p - d_k is -1 at an earlier position and 1 at a later one,
    so the offsets are 0 and 1: the raising table of `generate_strings`, and
    this set is that closure's, from the same search.  `is_string` is the
    independent per-point check of the lowering rule.
    """
    word = tuple(word)
    groups, rows = _layout(d, word)
    ties = [None] * len(word)
    for ps in groups:
        for k in ps:
            step = _bump([0] * len(word), rows[k], k, 1)
            ties[k] = tuple((p, step[p] - step[k] + (1 if p < k else 0)) for p in ps if p != k)
    return _closure(rows, tuple(ties), box)


def generate_strings(d: DynkinDiagram, word, box: int) -> frozenset[int]:
    """The codes (see `_weights`) of the closure of the zero vector under all
    raising operators, pruned to the box.

    Pruning is sound: a raising step only increments one coordinate, so every
    in-box string is reached through intermediates that stay in the box.  The
    raising operator of a letter adds e_k at the last maximum of r(a) among its
    positions, that is where r(a)_p <= r(a)_k at each earlier position p and
    r(a)_p + 1 <= r(a)_k at each later one; `ties[k]` holds these (p, offset)
    pairs for `_closure`.
    """
    word = tuple(word)
    groups, rows = _layout(d, word)
    ties = [None] * len(word)
    for ps in groups:
        for k in ps:
            ties[k] = tuple((p, 1 if p > k else 0) for p in ps if p != k)
    return _closure(rows, tuple(ties), box)


def points(codes, n: int, box: int) -> list[tuple[int, ...]]:
    """The points of [0..box]^n with the given codes (see `_weights`), sorted:
    the one inverse of the code, read digit by digit in base box+1."""
    base = box + 1
    out = []
    for code in codes:
        a = []
        rest = code
        for _ in range(n if box >= 0 else 0):  # a negative box has no point
            rest, x = divmod(rest, base)
            a.append(x)
        if rest or box < 0:
            raise ValueError(f"code {code} is no point of [0..{box}]^{n}")
        out.append(tuple(a))
    out.sort()
    return out


def string_crystal(d: DynkinDiagram, word, depth: int) -> CrystalGraph:
    word = tuple(word)
    zero = (0,) * len(word)
    return bfs_crystal(zero, sorted(set(word)), lambda i, v: string_e(d, word, i, v), depth)


def in_cone(a, normals) -> bool:
    """Exact test of every inequality normal . a >= 0."""
    a = tuple(a)
    for normal in normals:
        if len(normal) != len(a):
            raise ValueError("dimension mismatch between point and normal")
        if sum(x * y for x, y in zip(normal, a)) < 0:
            return False
    return True


def cone_points_pruned(normals, box: int, dim: int) -> frozenset[int]:
    """The codes (see `_weights`) of the integer points of the box [0..box]^dim
    satisfying every inequality.

    A coordinate search.  Each nonzero normal is kept as its support, grouped
    by its last supporting coordinate k with c_k apart.  Once x_0..x_{k-1} are
    set, such an inequality reads partial + c_k * x_k >= 0, so it bounds x_k
    exactly: x_k >= ceil(-partial / c_k) when c_k > 0 and
    x_k <= floor(partial / -c_k) when c_k < 0, both by integer floor division.
    Each normal's partial is a running sum: setting x_j adds c_j * x_j to the
    partial of every normal with j in its support before k, and backtracking
    takes it off again.  Each node reads its bounds from those sums, stops as
    soon as they cross, and loops over the values between them, carrying the
    running code of x_0..x_{k-1}; each leaf emits its code.
    """
    normals = [tuple(v) for v in normals]
    for normal in normals:
        if len(normal) != dim:
            raise ValueError("dimension mismatch between box and normal")
    # normal t's running partial is partial[t]; bounds[k] holds (t, c_k) for
    # each normal whose last support is k, terms[j] holds (t, c_j) for each
    # normal with j in its support before that
    bounds: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    terms: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    partial: list[int] = []
    for normal in normals:
        support = [(j, c) for j, c in enumerate(normal) if c]
        if support:
            k, c_k = support.pop()
            bounds[k].append((len(partial), c_k))
            for j, c in support:
                terms[j].append((len(partial), c))
            partial.append(0)
    weight = _weights(dim, box)
    out: list[int] = []

    def walk(k: int, code: int) -> None:
        if k == dim:
            out.append(code)
            return
        lo, hi = 0, box
        for t, c_k in bounds[k]:
            if c_k > 0:
                lo = max(lo, -(partial[t] // c_k))
            else:
                hi = min(hi, partial[t] // -c_k)
            if lo > hi:
                return
        w = weight[k]
        for v in range(lo, hi + 1):
            for t, c in terms[k]:
                partial[t] += c * v
            walk(k + 1, code + v * w)
            for t, c in terms[k]:
                partial[t] -= c * v

    walk(0, 0)
    return frozenset(out)


def pretty_inequality(vec) -> str:
    """Render a normal as e.g. t4+t5-t3>=0, positive terms before negative."""
    pos = [(k + 1, c) for k, c in enumerate(vec) if c > 0]
    neg = [(k + 1, -c) for k, c in enumerate(vec) if c < 0]
    if not pos and not neg:
        return "0>=0"
    parts = []
    for idx, (k, c) in enumerate(pos):
        term = f"t{k}" if c == 1 else f"{c}t{k}"
        parts.append(term if idx == 0 else "+" + term)
    for k, c in neg:
        term = f"t{k}" if c == 1 else f"{c}t{k}"
        parts.append("-" + term)
    return "".join(parts) + ">=0"


def inequalities_json(typed_normals) -> list[dict]:
    """JSON rows [{"type": i, "normal": [...], "pretty": ...}] in given order."""
    return [
        {"type": i, "normal": list(normal), "pretty": pretty_inequality(normal)}
        for i, normal in typed_normals
    ]
