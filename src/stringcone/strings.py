"""String parametrization: raising/lowering operators, the embedding membership
test, brute-force string-set generation, and integer cone point utilities."""

from __future__ import annotations

from .cartan import DynkinDiagram, cartan_matrix
from .crystal import CrystalGraph, bfs_crystal


class LetterAbsent(ValueError):
    """No position of the word carries the requested letter."""


def _layout(d: DynkinDiagram, word):
    """Positions of each letter (letters sorted, positions ascending), and for
    each position j the pairs (k, c_{i_j, i_k}) with k > j and a nonzero entry."""
    cm = cartan_matrix(d)
    positions = {i: [k for k, letter in enumerate(word) if letter == i] for i in sorted(set(word))}
    rows = [
        [(k, cm[ij - 1][ik - 1]) for k, ik in enumerate(word) if k > j and cm[ij - 1][ik - 1]]
        for j, ij in enumerate(word)
    ]
    return positions, rows


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
    positions, rows = _layout(d, tuple(word))
    if i not in positions:
        raise LetterAbsent(f"letter {i} does not occur in the word")
    ps = positions[i]
    r = _r_vector(rows, a)
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
    witnessing path can be peeled off).  Search the lowerings with memoization,
    carrying r along each lowering step.
    """
    word = tuple(word)
    a = tuple(a)
    positions, rows = _layout(d, word)
    r = _r_vector(rows, a)
    if any(x < 0 for x in a):
        return False
    seen: dict[tuple[int, ...], bool] = {(0,) * len(word): True}

    def member(v: tuple[int, ...], r: list[int]) -> bool:
        if v in seen:
            return seen[v]
        seen[v] = False  # cycle-safe placeholder; lowering strictly decreases
        for ps in positions.values():
            k = _argmax(r, ps)
            if v[k] and member(_shift(v, k, -1), _bump(r.copy(), rows[k], k, -1)):
                seen[v] = True
                break
        return seen[v]

    return member(a, r)


def _weights(n: int, box: int) -> list[int]:
    """The place value of each coordinate in a point's integer code: the code of
    a in [0..box]^n is sum_k a_k * (box+1)^k, one code per point of the box, and
    raising a_k adds weight[k] to it."""
    return [(box + 1) ** k for k in range(n)]


def strings_in_box(d: DynkinDiagram, word, box: int) -> frozenset[tuple[int, ...]]:
    """The points of [0..box]^N that is_string accepts, searched upward from zero.

    A nonzero point b is a string iff some lowering of b is defined and lands on
    a string, and a lowering that subtracts e_k is b's first maximum of r among
    the positions of letter word[k].  So from each accepted a, the point
    b = a + e_k is accepted exactly when k is that first maximum of r(b): the
    lowering tie rule applied at b, never the raising rule at a.

    The rule is read on r(a) at the letter's positions.  Raising a_k adds a
    fixed step d_p to each r_p, so k is the first maximum of r(b) iff
    r(a)_p + d_p - d_k + 1 <= r(a)_k at each earlier position p of the letter
    and r(a)_p + d_p - d_k <= r(a)_k at each later one; `ties[k]` holds these
    (p, offset) pairs.  An accepted b is looked up by its integer code (see
    `_weights`) among the codes found so far, and only a new b is built and its
    r bumped.  The work is |strings| * N, not the (box+1)^N of a scan.
    """
    word = tuple(word)
    positions, rows = _layout(d, word)
    ties = []
    for k, letter in enumerate(word):
        step = _bump([0] * len(word), rows[k], k, 1)
        ties.append(
            [(p, step[p] - step[k] + (1 if p < k else 0)) for p in positions[letter] if p != k]
        )
    weight = _weights(len(word), box)
    zero = (0,) * len(word)
    codes = {0}
    found = [zero]
    stack = [(0, zero, [0] * len(word))]
    while stack:
        code, a, r = stack.pop()
        for k, tie in enumerate(ties):
            if a[k] < box:
                top = r[k]
                for p, offset in tie:
                    if r[p] + offset > top:
                        break
                else:
                    c = code + weight[k]
                    if c not in codes:
                        codes.add(c)
                        b = a[:k] + (a[k] + 1,) + a[k + 1:]
                        found.append(b)
                        stack.append((c, b, _bump(r.copy(), rows[k], k, 1)))
    del codes  # before the frozenset is built, so the two never coexist
    return frozenset(found)


def generate_strings(d: DynkinDiagram, word, box: int) -> frozenset[tuple[int, ...]]:
    """Close the zero vector under all raising operators, pruned to the box.

    Pruning is sound: a raising step only increments one coordinate, so every
    in-box string is reached through intermediates that stay in the box.  A
    raised point is looked up by its integer code (see `_weights`) among the
    codes reached so far, and only a new one is built and its r bumped.
    """
    word = tuple(word)
    positions, rows = _layout(d, word)
    last_first = [ps[::-1] for ps in positions.values()]
    weight = _weights(len(word), box)
    zero = (0,) * len(word)
    codes = {0}
    found = [zero]
    stack = [(0, zero, [0] * len(word))]
    while stack:
        code, a, r = stack.pop()
        at = r.__getitem__
        for ps in last_first:
            k = max(ps, key=at)  # the raising rule: the last maximum of r(a)
            if a[k] < box:
                c = code + weight[k]
                if c not in codes:
                    codes.add(c)
                    b = a[:k] + (a[k] + 1,) + a[k + 1:]
                    found.append(b)
                    stack.append((c, b, _bump(r.copy(), rows[k], k, 1)))
    del codes  # before the frozenset is built, so the two never coexist
    return frozenset(found)


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


def cone_points_pruned(normals, box: int, dim: int) -> frozenset[tuple[int, ...]]:
    """Integer points of the box [0..box]^dim satisfying every inequality.

    A coordinate search.  Each nonzero normal is kept as its support, grouped
    by its last supporting coordinate k with c_k apart.  Once x_0..x_{k-1} are
    set, such an inequality reads partial + c_k * x_k >= 0, so it bounds x_k
    exactly: x_k >= ceil(-partial / c_k) when c_k > 0 and
    x_k <= floor(partial / -c_k) when c_k < 0, both by integer floor division.
    Each normal's partial is a running sum: setting x_j adds c_j * x_j to the
    partial of every normal with j in its support before k, and backtracking
    takes it off again.  Each node reads its bounds from those sums, stops as
    soon as they cross, and loops over the values between them.
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
    out: list[tuple[int, ...]] = []
    point = [0] * dim

    def walk(k: int) -> None:
        if k == dim:
            out.append(tuple(point))
            return
        lo, hi = 0, box
        for t, c_k in bounds[k]:
            if c_k > 0:
                lo = max(lo, -(partial[t] // c_k))
            else:
                hi = min(hi, partial[t] // -c_k)
            if lo > hi:
                return
        for v in range(lo, hi + 1):
            point[k] = v
            for t, c in terms[k]:
                partial[t] += c * v
            walk(k + 1)
            for t, c in terms[k]:
                partial[t] -= c * v

    walk(0)
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
