"""Independent reference implementations that the tests compare the package with.

Each is written from its definition, not from the code it checks.  Outside the
test modules `assert` statements vanish under `python -O`, so nothing here
asserts: a reference only computes.
"""

from collections import deque
from functools import lru_cache
from itertools import product
from typing import NamedTuple

from stringcone.arquiver import grid_A
from stringcone.cartan import (
    NotSimplyLacedAD,
    cartan_matrix,
    diagram_type,
    num_positive_roots,
    positive_roots,
    simple_root,
    weyl_act,
)
from stringcone.quiver import quiver, quiver_spec, ringel_matrix
from stringcone.wiring import GPPath


def point_code(a, box: int) -> int:
    """The integer code of a point of [0..box]^n: its entries as the digits of
    a base-(box+1) number, the first entry least significant."""
    return sum(x * (box + 1) ** k for k, x in enumerate(a))


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


def reflect_root(d, i, v):
    """s_i on simple-root coordinates: v minus its pairing with the coroot of
    a_i, the i-th coordinate of v in the weight basis, times a_i."""
    a_i = simple_root(d, i)
    coef = alpha_to_omega(d, v)[i - 1]
    return tuple(x - coef * a for x, a in zip(v, a_i))


def reflect_weight(d, i, v):
    """s_i on fundamental-weight coordinates: v minus v_i times the simple root
    a_i written in the weight basis."""
    a_i = alpha_to_omega(d, simple_root(d, i))
    return tuple(x - v[i - 1] * c for x, c in zip(v, a_i))


def coxeter_permutation(q) -> tuple[int, ...]:
    """Type A only: the Coxeter element as a permutation of 1..n+1 (images tuple)."""
    if diagram_type(q.diagram) != "A":
        raise NotSimplyLacedAD("permutation form is a type A construction")
    perm = list(range(q.diagram.n + 2))
    for i in sink_order(q):
        # first sink acts innermost: post-compose with the transposition (i, i+1)
        perm = [i + 1 if x == i else i if x == i + 1 else x for x in perm]
    return tuple(perm[1:])


class NotASink(ValueError):
    """Reflection requested at a vertex that is not a sink."""


def is_sink(q, i) -> bool:
    """No arrow of q starts at i."""
    return all(src != i for src, _ in q.arrows)


def reflect_sink(q, i):
    """The quiver with every arrow ending at the sink i reversed, rebuilt."""
    if not (1 <= i <= q.diagram.n):
        raise NotASink(f"vertex {i} out of range")
    if not is_sink(q, i):
        raise NotASink(f"vertex {i} is not a sink of {quiver_spec(q)}")
    return quiver(q.diagram, [(b, a) if b == i else (a, b) for a, b in q.arrows])


def is_adapted(word, q) -> bool:
    """Each letter is a sink of q reflected at the letters before it."""
    for i in word:
        if not (1 <= i <= q.diagram.n) or not is_sink(q, i):
            return False
        q = reflect_sink(q, i)
    return True


def sink_order(q) -> tuple[int, ...]:
    """Each vertex once: the smallest sink of the reflected quiver not yet taken."""
    order = []
    while len(order) < q.diagram.n:
        i = min(v for v in range(1, q.diagram.n + 1) if v not in order and is_sink(q, v))
        order.append(i)
        q = reflect_sink(q, i)
    return tuple(order)


def adapted_word(q) -> tuple[int, ...]:
    """The greedy adapted word: each letter is the smallest sink of the
    reflected quiver whose simple root the prefix w sends to a positive root,
    which is when the prefix followed by it stays reduced."""
    d = q.diagram
    word = []
    while len(word) < num_positive_roots(d):
        i = next(
            v
            for v in range(1, d.n + 1)
            if is_sink(q, v) and all(x >= 0 for x in weyl_act(d, word, simple_root(d, v)))
        )
        word.append(i)
        q = reflect_sink(q, i)
    return tuple(word)


def ar_arrows(d, word) -> tuple[tuple[int, int], ...]:
    """The pairs k < k2 of positions whose letters are adjacent in the diagram
    with no occurrence of either letter strictly between them."""
    adjacent = {frozenset(e) for e in d.edges}
    out = []
    for k in range(1, len(word) + 1):
        for k2 in range(k + 1, len(word) + 1):
            ends = {word[k - 1], word[k2 - 1]}
            if frozenset(ends) in adjacent and not ends & set(word[k : k2 - 1]):
                out.append((k, k2))
    return tuple(out)


def translation(word) -> dict[int, int]:
    """Each position with an earlier occurrence of its letter, sent to the
    nearest such occurrence."""
    return {
        k: max(j for j in range(1, k) if word[j - 1] == word[k - 1])
        for k in range(1, len(word) + 1)
        if word[k - 1] in word[: k - 1]
    }


def path_order(n_positions, arrows) -> set[tuple[int, int]]:
    """The pairs (k1, k2) joined by a path of arrows from k1 to k2, the empty
    path included: the reflexive transitive closure."""
    succ = {}
    for a, b in arrows:
        succ.setdefault(a, []).append(b)
    out = set()
    for k in range(1, n_positions + 1):
        seen = {k}
        stack = [k]
        while stack:
            for b in succ.get(stack.pop(), ()):
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        out |= {(k, b) for b in seen}
    return out


def is_reduced_w0(d, word) -> bool:
    """w0 is the only Weyl element sending every positive root to a negative one,
    and a word of length N for it is reduced."""
    word = tuple(word)
    if len(word) != num_positive_roots(d) or not all(1 <= i <= d.n for i in word):
        return False
    return all(all(x <= 0 for x in weyl_act(d, word, beta)) for beta in positive_roots(d))


def ringel_form(q, b1, b2) -> int:
    """The homological bilinear form <b1, b2> through the Ringel matrix."""
    rm = ringel_matrix(q)
    n = q.diagram.n
    return sum(b1[i] * rm[i][j] * b2[j] for i in range(n) for j in range(n))


def string_weight(d, word, a) -> tuple[int, ...]:
    """Sum of a_k times the simple root of the k-th letter."""
    out = [0] * d.n
    for value, letter in zip(a, word):
        out[letter - 1] += value
    return tuple(out)


def lowers_to_zero(d, word, a) -> bool:
    """Whether some path of lowering steps takes a to zero: a step picks any
    letter, and subtracts e_k at the first position k of that letter where
    r_k = a_k + sum_{j<k} c_{i_j, i_k} a_j is maximal, provided a_k > 0.  Every
    point met is searched, with r recomputed from its definition."""
    cm = cartan_matrix(d)
    a = tuple(a)
    if any(x < 0 for x in a):
        return False
    seen = {a}
    stack = [a]
    while stack:
        v = stack.pop()
        if not any(v):
            return True
        r = [v[k] + sum(cm[word[j] - 1][word[k] - 1] * v[j] for j in range(k))
             for k in range(len(v))]
        for letter in set(word):
            ps = [k for k, x in enumerate(word) if x == letter]
            k = max(ps, key=lambda p: (r[p], -p))
            if v[k]:
                u = v[:k] + (v[k] - 1,) + v[k + 1:]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return False


def same_labelled_graph(g1, g2) -> bool:
    """Whether the forced source-to-source vertex matching is a graph isomorphism.

    Out-degree one per label makes the matching unique: pair the sources and
    propagate along equal labels; any clash means two paths that meet in one
    graph but not the other.
    """
    pair = {g1.source: g2.source}
    back = {g2.source: g1.source}
    out1 = _out_maps(g1)
    out2 = _out_maps(g2)
    queue = deque([g1.source])
    while queue:
        v = queue.popleft()
        w = pair[v]
        m1 = out1.get(v, {})
        m2 = out2.get(w, {})
        if set(m1) != set(m2):
            return False
        for i, v2 in m1.items():
            w2 = m2[i]
            if v2 in pair:
                if pair[v2] != w2:
                    return False
            elif w2 in back:
                return False
            else:
                pair[v2] = w2
                back[w2] = v2
                queue.append(v2)
    return len(pair) == len(g1.vertices) == len(g2.vertices)


def _out_maps(g):
    """Each vertex's outgoing edges as a label -> target map."""
    out = {}
    for a, i, b in g.edges:
        out.setdefault(a, {})[i] = b
    return out


def hom_to_simple(ar, k, i) -> int:
    """dim Hom from the module at position k to the simple at i: the Ringel form
    of its root with the simple root when k precedes the simple's position in
    the translation quiver, and 0 otherwise."""
    simple = simple_root(ar.quiver.diagram, i)
    if not ar.leq(k, ar.position_by_root[simple]):
        return 0
    return ringel_form(ar.quiver, ar.root(k), simple)


def _poset(ar, i) -> list[int]:
    """Positions whose module has a nonzero map to the simple at i."""
    return [k for k in range(1, ar.N + 1) if hom_to_simple(ar, k, i) > 0]


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


def _tracks(word, n: int) -> list[list[int]]:
    """Wires on tracks 1..n+1 before the first letter and after each letter."""
    tracks = [list(range(1, n + 2))]
    for t in word:
        row = list(tracks[-1])
        row[t - 1], row[t] = row[t], row[t - 1]
        tracks.append(row)
    return tracks


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
    tracks = _tracks(word, n)
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


def staircase_turns(ar, a) -> list[tuple[int, int]]:
    """Type A: the (row wire, column wire) of each position's hammock grid cell,
    row index descending.  The grid's rows and columns carry the i-segmented
    Coxeter cycle j_1 .. j_i | j_{i+1} .. j_{n+1}."""
    grid = grid_A(ar, a.type_index)
    j = grid.left_segment + grid.right_segment
    found = [next(cell for cell, pos in grid.cells.items() if pos == k) for k in a.positions]
    return [(j[row - 1], j[column - 1]) for row, column in sorted(found, key=lambda c: -c[0])]


@lru_cache(maxsize=None)
def forbidden_crossings(word, n: int, i: int) -> frozenset[tuple[int, int]]:
    """The (crossing, wire) pairs of the type-i orientation where both wires
    travel the same way and this wire climbs to a higher track in its travel
    direction.  Wires above i travel right, the others left; the wire on the
    upper track before a crossing descends going right."""
    tracks = _tracks(word, n)
    out = set()
    for k, t in enumerate(word, start=1):
        upper, lower = tracks[k - 1][t - 1], tracks[k - 1][t]
        for wire, other in ((upper, lower), (lower, upper)):
            forward = wire > i
            if forward != (other > i):
                continue
            if (wire == lower) if forward else (wire == upper):
                out.add((k, wire))
    return frozenset(out)


@lru_cache(maxsize=None)
def _orientation(word, n: int, i: int) -> dict:
    """The type-i orientation's out-edges, labelled by their wire: each wire
    runs from its left border vertex through its crossings (the letters that
    swap it with a neighbouring track) to its right border vertex, rightwards
    for wires above i and leftwards for the others."""
    routes = {wire: [] for wire in range(1, n + 2)}
    for k, (t, row) in enumerate(zip(word, _tracks(word, n)), start=1):
        routes[row[t - 1]].append(k)
        routes[row[t]].append(k)
    out = {}
    for wire, route in routes.items():
        nodes = [("l", wire), *route, ("r", wire)]
        if wire <= i:
            nodes.reverse()
        for a, b in zip(nodes, nodes[1:]):
            out.setdefault(a, []).append((wire, b))
    return out


def gp_paths(wd, i) -> tuple:
    """Every type-i path by an unpruned depth-first search: from the entry
    border vertex ("l", i+1) along the oriented wires to the exit vertex
    ("l", i), never passing straight through a forbidden (crossing, wire) pair;
    sorted by crossings, then wires."""
    out = _orientation(wd.word, wd.n, i)
    forbidden = forbidden_crossings(wd.word, wd.n, i)
    goal = ("l", i)
    found = []

    def dfs(node, in_wire, crossings, wires):
        if node == goal:
            found.append(GPPath(i, crossings, wires))
            return
        if not isinstance(node, int):
            return  # another border vertex: a dead end
        for wire, nxt in out.get(node, ()):
            if wire == in_wire and (node, wire) in forbidden:
                continue
            dfs(nxt, wire, crossings + (node,), wires + (wire,))

    ((first_wire, first_node),) = out[("l", i + 1)]
    dfs(first_node, first_wire, (), (first_wire,))
    return tuple(sorted(found, key=lambda p: (p.crossings, p.wires)))


def is_gp_path(wd, path) -> bool:
    """Walk the path: its segments, one per wire, join ("l", i+1), its
    crossings and ("l", i) by edges of the type-i orientation on that wire,
    and it never passes straight through a forbidden (crossing, wire) pair."""
    i = path.type_index
    if not (1 <= i <= wd.n) or len(path.wires) != len(path.crossings) + 1:
        return False
    out = _orientation(wd.word, wd.n, i)
    nodes = [("l", i + 1), *path.crossings, ("l", i)]
    if any((wire, b) not in out.get(a, ()) for a, wire, b in zip(nodes, path.wires, nodes[1:])):
        return False
    forbidden = forbidden_crossings(wd.word, wd.n, i)
    return not any(
        wire == out_wire and (k, wire) in forbidden
        for k, wire, out_wire in zip(path.crossings, path.wires, path.wires[1:])
    )


def is_ad_tree(n, edges) -> bool:
    """Whether a tree on 1..n is of type A or D: every degree at most three,
    at most one vertex of degree three, and, at that branch vertex, at least
    two of its legs (the components left when it is removed) single vertices."""
    adj = {v: set() for v in range(1, n + 1)}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    branch = [v for v in adj if len(adj[v]) > 2]
    if any(len(adj[v]) > 3 for v in adj) or len(branch) > 1:
        return False
    if not branch:
        return True
    b = branch[0]
    legs = []
    for start in adj[b]:
        leg = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w != b and w not in leg:
                    leg.add(w)
                    stack.append(w)
        legs.append(len(leg))
    return sorted(legs)[:2] == [1, 1]
