"""String parametrization: raising/lowering operators, the embedding membership
test, brute-force string-set generation, and integer cone point utilities.

The three box kernels (`generate_strings`, `strings_in_box`,
`cone_points_pruned`) return the integer codes of their points (see
`_weights`); `points` is the one decoder.  `generate_strings` is the raising
closure of zero, searched level by level over the prefixes a_0..a_{N-2}, each
with the last coordinate's values as the bits of one int: r is triangular, so
the last coordinate moves only r_{N-1}, and one scan per letter per prefix
raises its whole fiber.  In the same pass it certifies each fiber as its
prefix leaves the queue, by the lowering rule's own choice of letter and
position; a cone check runs this one search.  `strings_in_box` is the lowering
filter, a box search of its own that accepts a + e_k when the lowering rule
read at a + e_k picks k, which the tests hold against the closure.
`cone_points_pruned` walks the coordinates depth first in one loop, bounding
each from the inequalities' running sums, and emits the last coordinate's
values as one range of codes, so no step is taken per point.  `is_string`
walks the one greedy lowering path of a point; its docstring proves why that
decides membership, and the tests run it over whole boxes: A1-A3 at box 3
where the box has at most 5,000 points, A3 `2>1,2>3` at box 4, D4 at box 1,
and ranks up to 2 at boxes 3-4."""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .cartan import DynkinDiagram, InvariantViolation, cartan_matrix
from .crystal import CrystalGraph, bfs_crystal


class LetterAbsent(ValueError):
    """No position of the word carries the requested letter."""


@lru_cache(maxsize=16)
def _layout(d: DynkinDiagram, word: tuple[int, ...]):
    """The positions of each letter (one tuple per letter, letters ascending,
    positions ascending), and for each position j the pairs (k, c_{i_j, i_k})
    with k > j and a nonzero entry.  Both are tuples, built once per (diagram,
    word) and shared by every caller: both box searches, and every point of an
    is_string scan."""
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
    """Membership test for the embedded crystal image, along the one greedy
    lowering path: each step takes the first letter whose maximum of r over
    its positions is positive and lowers at that letter's first maximum k; the
    walk rejects when no letter has a positive maximum or a_k = 0, and accepts
    when it reaches zero.  With c_ii = 2 (every type the package builds) this
    decides membership, by two facts.

    1. Raising at the last maximum and lowering at the first maximum are
       inverse maps on Z^N.  Changing a_k by t changes r_k by t, r_p by
       c_ii * t = 2t at each later position p of the same letter, and no earlier
       r_p.  Raise at the last maximum k, of value m: earlier positions stay
       <= m, r_k becomes m + 1 and later positions go from <= m - 1 to
       <= m + 1, so k is the first maximum of the raised point and lowering
       there undoes the step.  Lower at the first maximum k, of value m:
       earlier positions stay <= m - 1, r_k becomes m - 1 and later positions
       go from <= m to <= m - 2, so k is the last maximum of the lowered point
       and raising there undoes the step.

    2. A point lowers to zero along some path exactly when it does along the
       greedy path.  The image is the raising closure of zero.  By 1, a
       lowering path from b to zero, read backwards, raises zero to b, and a
       raising path from zero to b, read backwards, lowers b to zero; so the
       points that lower to zero along some path are the image.  The image
       with these operators is B(infinity) in its string embedding
       (Kashiwara; Littelmann 1998; Nakashima-Zelevinsky 1997), where
       epsilon_i(b) = max(0, the maximum of r over letter i): lowering a point
       of the image where epsilon_i > 0 lands in the image, and zero is its
       only point where every epsilon_i is 0.  So at a nonzero point of the
       image the greedy step finds a letter, has a_k > 0 (points of the image
       have no negative entry) and lands in the image.  Each step lowers
       sum(a) by one, so from a point of the image the greedy path reaches
       zero in sum(a) steps; from any other point no path does, and the walk
       rejects.

    The walk carries r along each step and keeps no seen set and no stack.
    """
    a = list(a)
    groups, rows = _layout(d, tuple(word))
    r = _r_vector(rows, a)
    if any(x < 0 for x in a):
        return False
    for _ in range(sum(a)):
        for ps in groups:
            k = _argmax(r, ps)
            if r[k] > 0:
                break
        else:
            return False
        if not a[k]:
            return False
        a[k] -= 1
        _bump(r, rows[k], k, -1)
    return True


def _weights(n: int, box: int) -> list[int]:
    """The place value of each coordinate in a point's integer code: the code of
    a in [0..box]^n is sum_k a_k * (box+1)^k, one code per point of the box, and
    raising a_k adds weight[k] to it."""
    return [(box + 1) ** k for k in range(n)]


class NotLowered(InvariantViolation):
    """A point of the raising closure failed the lowering certificate: its
    lowering is undefined or lands outside the closure.  `codes` holds the
    closure's codes and `points` the failing points, sorted."""

    def __init__(self, codes: frozenset[int], failing: list[tuple[int, ...]]) -> None:
        super().__init__("the lowering rule leaves the raising closure", failing)
        self.codes = codes
        self.points = failing


def strings_in_box(d: DynkinDiagram, word, box: int) -> frozenset[int]:
    """The codes (see `_weights`) of the points of [0..box]^N that is_string
    accepts, searched upward from zero over lowering edges.

    A nonzero point b is a string iff some lowering of b is defined and lands on
    a string, and a lowering that subtracts e_k is b's first maximum of r among
    the positions of letter word[k].  So from each accepted a, the point
    b = a + e_k is accepted exactly when k is that first maximum of r(b): the
    lowering rule read at b, never the raising rule at a.

    This is the lowering filter, a box search of its own that the tests hold
    against `generate_strings` and `is_string`; a cone check runs the lowering
    certificate of `generate_strings` instead.  Each point of the search is its
    code and its r; a stepped-to point is looked up by its code among the codes
    found so far, and only a new one gets r(b), kept when the rule accepts it.
    """
    word = tuple(word)
    groups, rows = _layout(d, word)
    if box < 0:
        return frozenset()  # [0..box]^N has no points
    n = len(word)
    own = {k: ps for ps in groups for k in ps}  # each position's letter's positions
    weight = _weights(n, box)
    codes = {0}
    stack = [(0, [0] * n)]
    while stack:
        code, r = stack.pop()
        for k, w in enumerate(weight):
            c = code + w
            if code // w % (box + 1) < box and c not in codes:  # a_k < box, read off the code
                t = _bump(r.copy(), rows[k], k, 1)
                if _argmax(t, own[k]) == k:
                    codes.add(c)
                    stack.append((c, t))
    return frozenset(codes)


def generate_strings(d: DynkinDiagram, word, box: int) -> frozenset[int]:
    """The codes (see `_weights`) of the closure of the zero vector under all
    raising operators, pruned to the box, checked by the lowering certificate.

    Pruning is sound: a raising step only increments one coordinate, so every
    in-box string is reached through intermediates that stay in the box.  The
    raising operator of a letter adds e_k at the last maximum k of r(a) among
    its positions.  For any Cartan matrix r_k reads only a_0..a_k, so the last
    coordinate t = a_{N-1} moves r_{N-1} alone, as R + t.  The search runs
    over prefixes p = (a_0..a_{N-2}), each keeping its fiber, the t of the
    closure's points (p, t), as the bits of one int.  A letter other than the
    last position's letter l raises the whole fiber at one k < N-1, so its
    bits move to p + e_k.  With M the maximum of r over l's other positions,
    l raises at the last position exactly when R + t >= M (a tie goes to the
    later position), so the bits from max(0, M - R) up fill the fiber to the
    box, and the bits below move to p + e_k at l's last maximum k.  A prefix
    is one queue entry with one list, r in slots 0..N-1 and a in N..2N-2,
    copied only for a new prefix: one scan per letter per prefix, not per
    point.

    The lowering certificate runs in the same pass, by its own rule: at each
    nonzero point b, the first letter whose maximum of r(b) is positive, at
    its first maximum k, found by a scan up; b_k > 0 is required, and b - e_k
    must be in the closure.  Only l's choice depends on t: where R + t > M
    and R + t > 0 it is the last position, and b lowers to t - 1 in its own
    fiber; elsewhere l lowers into fiber p - e_k at its first maximum before
    N-1 when M > 0.  Each move between prefixes raises the prefix sum by one,
    and the queue runs level by level in it, so when a prefix leaves the
    queue its fiber and every fiber one level down are complete.  When every
    point passes, each point lowers to zero by the lowering rule alone (by
    induction on sum(b)), so the set is pinned by both rules: see `is_string`
    for why they agree.  Otherwise NotLowered is raised, carrying the codes
    and the failing points.
    """
    word = tuple(word)
    if box < 0:
        return frozenset()  # [0..box]^N has no points
    if not box or not word:
        return frozenset((0,))  # zero is the one point, and needs no lowering
    groups, rows = _layout(d, word)
    n = len(word)
    last = n - 1
    weight = _weights(n, box)
    step = weight[last]
    full = (1 << box + 1) - 1  # the bits of t = 0..box
    # l's positions before the last, then each other letter ascending: its
    # last position, the others from the last down, all of them from the
    # first up, and whether it comes before l
    scans = []
    for ps in groups:
        if ps[-1] != last:
            scans.append((ps[-1], ps[-2::-1], ps, word[ps[0]] < word[last]))
        else:
            own = ps[:-1]
            if own:
                scans.insert(0, (ps[-2], ps[-3::-1], own, None))
    fibers = {0: 1}  # prefix code -> the bits of its fiber
    failing = []
    queue = deque([(0, [0] * (2 * n))])
    while queue:
        code, s = queue.popleft()
        bits = fibers[code]
        base = s[last]
        top = 0  # M, or 0 when l has no other position
        if not own:  # l raises every t at the last position
            bits = fibers[code] = bits | full & -bits
        low = None
        for k, down, ps, early in scans:
            m = s[k]
            for p in down:
                if s[p] > m:
                    k, m = p, s[p]
            lifted = bits
            if ps is own:
                # l raises at k below t = cut and at the last position from
                # there up, which fills the fiber before the others lift it
                top, cut = m, max(m - base, 0)
                lifted = bits & (1 << cut) - 1
                bits = fibers[code] = bits | full & -(bits ^ lifted)
            elif low is None and m > 0:
                for low in ps:
                    if s[low] == m:
                        break
                first = early
            if lifted and s[n + k] < box:
                c = code + weight[k]
                if c in fibers:
                    fibers[c] |= lifted
                else:
                    fibers[c] = lifted
                    t = s.copy()
                    t[n + k] += 1
                    queue.append((c, _bump(t, rows[k], k, 1)))
        # the t whose lowering lands in the closure: l lowers at the last
        # position where base + t > top and base + t > 0, from t = drop up,
        # and the rest of the fiber lowers at j
        j, drop = low, box + 1
        if low is None or not first:
            drop = max(max(top + 1, 1) - base, 0)
            if top > 0:
                for j in own:
                    if s[j] == top:
                        break
        at_last = full >> drop << drop
        ok = at_last & bits << 1
        if j is not None and s[n + j]:
            ok |= fibers.get(code - weight[j], 0) & ~at_last
        bits &= ~ok if code else ~(ok | 1)  # zero needs no lowering
        if bits:
            failing += [code + t * step for t in range(box + 1) if bits >> t & 1]
    codes = frozenset([c + t * step for c, bits in fibers.items()
                       for t in range(box + 1) if bits >> t & 1])
    if failing:
        raise NotLowered(codes, points(failing, n, box))
    return codes


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

    A coordinate search, walked depth first in one loop.  Each nonzero normal
    is kept as its support, grouped by its last supporting coordinate k with
    c_k apart.  Once x_0..x_{k-1} are set, such an inequality reads
    partial + c_k * x_k >= 0, so it bounds x_k exactly:
    x_k >= ceil(-partial / c_k) when c_k > 0 and x_k <= floor(partial / -c_k)
    when c_k < 0, each by one integer floor division, with a coordinate's lower
    and upper bounds in two lists.  Each normal's partial is a running sum:
    setting x_j to the lowest value its bounds allow adds c_j * x_j to the
    partial of every normal with j in its support before k, each step to the
    next value adds c_j, and backtracking takes c_j * x_j off once.  The value,
    upper bound and code of each set coordinate sit in three lists.  The last
    coordinate is never set: its values between the bounds are emitted as one
    range of codes.
    """
    normals = [tuple(v) for v in normals]
    for normal in normals:
        if len(normal) != dim:
            raise ValueError("dimension mismatch between box and normal")
    if not dim:
        return frozenset((0,))  # the empty point, which every normal admits
    # normal t's running partial is partial[t]; lower[k] holds (t, c_k) for
    # each normal whose last support is k with c_k > 0, upper[k] holds
    # (t, -c_k) for those with c_k < 0, and terms[j] holds (t, c_j) for each
    # normal with j in its support before its last
    lower: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    upper: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    terms: list[list[tuple[int, int]]] = [[] for _ in range(dim)]
    partial: list[int] = []
    for normal in normals:
        support = [(j, c) for j, c in enumerate(normal) if c]
        if support:
            k, c_k = support.pop()
            if c_k > 0:
                lower[k].append((len(partial), c_k))
            else:
                upper[k].append((len(partial), -c_k))
            for j, c in support:
                terms[j].append((len(partial), c))
            partial.append(0)
    weight = _weights(dim, box)
    last = dim - 1
    w_last = weight[last]
    value = [0] * last  # x_j of each set coordinate j < last
    top = [0] * last  # its upper bound
    codes = [0] * last  # the code of x_0..x_j
    out: list[int] = []
    k, code = 0, 0  # the coordinate to bound next, and the code of x_0..x_{k-1}
    while True:
        lo, hi = 0, box
        for t, c in lower[k]:
            b = -(partial[t] // c)
            if b > lo:
                lo = b
        for t, c in upper[k]:
            b = partial[t] // c
            if b < hi:
                hi = b
        if lo <= hi:
            if k == last:
                out.extend(range(code + lo * w_last, code + hi * w_last + 1, w_last))
            else:
                for t, c in terms[k]:
                    partial[t] += c * lo
                value[k], top[k] = lo, hi
                code = codes[k] = code + lo * weight[k]
                k += 1
                continue
        # back up to the deepest set coordinate with a value left, taking the
        # exhausted ones off the running sums
        while True:
            k -= 1
            if k < 0:
                return frozenset(out)
            v = value[k]
            if v < top[k]:
                break
            for t, c in terms[k]:
                partial[t] -= c * v
        value[k] = v + 1
        for t, c in terms[k]:
            partial[t] += c
        code = codes[k] = codes[k] + weight[k]
        k += 1


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
