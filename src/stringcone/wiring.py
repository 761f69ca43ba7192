"""Wiring diagrams of reduced words in type A: crossings, chambers, oriented
path graphs, path contribution vectors, and the staircase correspondence with
antichains for adapted words.

The track table `occupancy` is the one record of the chambers: a chamber's
label, the set of wires on tracks 1..band, is the same at every gap between two
consecutive crossings of its level, so chamber weights and zones are read from
the table.  The crossing pairs `pairs` decide both type-i rules: which crossings
a path may not pass straight through, and which two wires each staircase turn
joins.  Every staircase path, the limiting path included, is built by one wire
ride (`_staircase`) along a list of wires in which no wire follows itself; the
crossing where the ride switches wires is read from `crossing`."""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .arquiver import ARQuiver
from .cartan import InvariantViolation, Vector, path_diagram, reflection_ordering
from .lusztig import Antichain, move
from .quiver import NotAdapted


Node = tuple[str, int] | int  # ("l", j) / ("r", j) borders, int crossing position


class GPPath(namedtuple("GPPath", [
    "type_index", "crossings",
    "wires",  # one per segment, len(crossings) + 1
])):
    __slots__ = ()


class WiringDiagram(namedtuple("WiringDiagram", [
    "n", "word", "pairs",
    "occupancy",  # wires per track, per gap 0..N
    "wire_route",
    "crossing",  # pair -> k
    "caps",  # 0, level crossings, N+1
])):
    @cached_property
    def cache(self) -> dict:
        """Tables built on first use; a `_replace` copy starts with none."""
        return {}

    @property
    def N(self) -> int:
        return len(self.word)

    def level(self, k: int) -> int:
        return self.word[k - 1]

    def crossing_of(self, a: int, b: int) -> int:
        """The crossing k of wires a and b; ValueError when they do not cross."""
        k = self.crossing.get((min(a, b), max(a, b)))
        if k is None:
            raise ValueError(f"wires {a} and {b} do not cross")
        return k


def build_wiring(word, n: int) -> WiringDiagram:
    """Simulate n+1 tracks; the k-th letter swaps the two wires at its level."""
    word = tuple(word)
    roots = reflection_ordering(path_diagram(n), word)  # validates reducedness
    tracks = list(range(1, n + 2))
    occupancy = [tuple(tracks)]
    pairs = []
    for t in word:
        a, b = tracks[t - 1], tracks[t]
        if a >= b:
            raise InvariantViolation("wires meet twice", {"letter": t, "wires": (a, b)})
        pairs.append((a, b))
        tracks[t - 1], tracks[t] = b, a
        occupancy.append(tuple(tracks))
    for k, (a, b) in enumerate(pairs):
        root = roots[k]
        lo = root.index(1) + 1
        hi = n - tuple(reversed(root)).index(1)
        if (a, b) != (lo, hi + 1):
            raise InvariantViolation(
                "crossing pair does not match the root interval",
                {"position": k + 1, "wires": (a, b), "root": root},
            )
    route: dict[int, list[int]] = {j: [] for j in range(1, n + 2)}
    for k, (a, b) in enumerate(pairs, start=1):
        route[a].append(k)
        route[b].append(k)
    return WiringDiagram(
        n=n,
        word=word,
        pairs=tuple(pairs),
        occupancy=tuple(occupancy),
        wire_route={j: tuple(r) for j, r in route.items()},
        crossing=MappingProxyType({pair: k for k, pair in enumerate(pairs, start=1)}),
        caps=tuple(
            (0, *(k for k, t in enumerate(word, start=1) if t == band), len(word) + 1)
            for band in range(1, n + 1)
        ),
    )


def chamber_weight(n: int, label) -> Vector:
    """Sum over the label of the column weights nu_j = -w_{j-1} + w_j."""
    out = [0] * n
    for j in label:
        if 2 <= j <= n + 1:
            out[j - 2] -= 1
        if j <= n:
            out[j - 1] += 1
    return tuple(out)


def lambda_minus(wd: WiringDiagram, k: int) -> Vector:
    """Weight of the chamber left of crossing k, labelled by the wires on
    tracks 1..level(k) just before it."""
    return chamber_weight(wd.n, wd.occupancy[k - 1][: wd.level(k)])


def lambda_plus(wd: WiringDiagram, k: int) -> Vector:
    """Weight of the chamber right of crossing k."""
    return chamber_weight(wd.n, wd.occupancy[k][: wd.level(k)])


def _forward(wire: int, i: int) -> bool:
    # Wires with index <= i travel right to left in the type-i orientation.
    return wire > i


class _TypeTable(namedtuple("_TypeTable", [
    "graph", "forbidden", "paths",
    "members",  # the same paths, each mapped to its (k-vector, turn positions)
    # wire -> its crossings in its travel direction, and crossing -> index there
    "rides",
])):
    __slots__ = ()


def _legs(wd: WiringDiagram) -> dict:
    """wire -> its (edges, ride) leftward and rightward, indexed by `_forward`:
    the consecutive node pairs from border to border in that travel direction,
    and its crossings in that order with crossing -> index there; built once
    per diagram."""
    if "legs" not in wd.cache:
        legs = {}
        for wire in range(1, wd.n + 2):
            nodes: list[Node] = [("l", wire), *wd.wire_route[wire], ("r", wire)]
            legs[wire] = []
            for seq in (nodes[::-1], nodes):
                route = tuple(seq[1:-1])
                ride = (route, {k: idx for idx, k in enumerate(route)})
                legs[wire].append((tuple(zip(seq, seq[1:])), ride))
        wd.cache["legs"] = legs
    return wd.cache["legs"]


def _table(wd: WiringDiagram, i: int) -> _TypeTable:
    """The type-i orientation, built once per diagram and type: out-edge lists
    keyed by vertex, the (crossing, wire) pairs a path may not pass straight
    through (both wires of the crossing travel the same way and this one
    ascends), every path from the entry border vertex to the exit vertex that
    avoids them, sorted and each with its k-vector and turn positions, and each
    wire's crossings in its travel direction.

    Crossing k swaps wires a < b, with a on the upper track before it, so a
    descends going right: of two right-going wires b ascends, of two left-going
    wires a does.  The path search enters only vertices from which the exit
    vertex can be reached, found by one search backwards along the edges."""
    key = ("type", i)
    if key in wd.cache:
        return wd.cache[key]
    if not (1 <= i <= wd.n):
        raise ValueError(f"type index {i} out of range")
    out: dict[Node, list[tuple[int, Node]]] = {}
    into: dict[Node, list[Node]] = {}
    rides = {}
    for wire, legs in _legs(wd).items():
        edges, rides[wire] = legs[_forward(wire, i)]
        for a, b in edges:
            out.setdefault(a, []).append((wire, b))
            into.setdefault(b, []).append(a)
    graph = {v: tuple(edges) for v, edges in out.items()}
    forbidden = frozenset(
        (k, b if a > i else a) for k, (a, b) in enumerate(wd.pairs, start=1) if a > i or b <= i
    )
    goal: Node = ("l", i)
    live = {goal}
    stack = [goal]
    while stack:
        for v in into.get(stack.pop(), ()):
            if v not in live:
                live.add(v)
                stack.append(v)
    found: list[GPPath] = []
    crossings: list[int] = []
    wires: list[int] = []

    def dfs(node: int, in_wire: int) -> None:
        crossings.append(node)
        wires.append(in_wire)
        for wire, nxt in graph[node]:
            if nxt not in live or wire == in_wire and (node, wire) in forbidden:
                continue
            if nxt == goal:
                found.append(GPPath(i, tuple(crossings), (*wires, wire)))
            else:
                dfs(nxt, wire)
        crossings.pop()
        wires.pop()

    ((first_wire, first_node),) = graph[("l", i + 1)]
    dfs(first_node, first_wire)
    del dfs  # empty the cell it reads itself from, so no cycle outlives the call
    found.sort(key=lambda p: (p.crossings, p.wires))
    members = {p: (k_vector(wd, p), _turn_positions(p)) for p in found}
    wd.cache[key] = _TypeTable(
        MappingProxyType(graph), forbidden, tuple(found), MappingProxyType(members),
        MappingProxyType(rides),
    )
    return wd.cache[key]


def gp_paths(wd: WiringDiagram, i: int) -> tuple[GPPath, ...]:
    """All paths from the entry border vertex of type i to its exit vertex that
    never pass straight through a same-direction crossing on the ascending wire."""
    return _table(wd, i).paths


def is_gp_path(wd: WiringDiagram, path: GPPath) -> bool:
    """Whether the path is one of the type-i paths that `gp_paths` lists; list
    fields are read as tuples."""
    i = path.type_index
    if not (1 <= i <= wd.n):
        return False
    return GPPath(i, tuple(path.crossings), tuple(path.wires)) in _table(wd, i).members


def _record(wd: WiringDiagram, path: GPPath) -> tuple[Vector, tuple[int, ...]]:
    """The (k-vector, turn positions) of a path that `is_gp_path` accepts;
    ValueError for any other."""
    i = path.type_index
    record = None
    if 1 <= i <= wd.n:
        # a GPPath hashes and compares as the plain tuple of its fields
        record = _table(wd, i).members.get((i, tuple(path.crossings), tuple(path.wires)))
    if record is None:
        raise ValueError(f"{path} is not a path of its type's oriented wiring diagram")
    return record


def path_vector(wd: WiringDiagram, path: GPPath) -> Vector:
    """The k-vector of a path of `gp_paths`, as its type table records it;
    ValueError, as `lusztig.move` gives for an unlisted antichain, for any other."""
    return _record(wd, path)[0]


def k_vector(wd: WiringDiagram, path: GPPath) -> Vector:
    """+1 where the path drops to a lower wire index, -1 where it climbs."""
    vec = [0] * wd.N
    for k, h, l in zip(path.crossings, path.wires, path.wires[1:]):
        if h > l:
            vec[k - 1] = 1
        elif h < l:
            vec[k - 1] = -1
    return tuple(vec)


def gp_table(wd: WiringDiagram) -> list[tuple[int, GPPath, Vector]]:
    out = []
    for i in range(1, wd.n + 1):
        paths = gp_paths(wd, i)  # the table is built inside gp_paths, a traced boundary
        members = _table(wd, i).members
        out.extend((i, path, members[path][0]) for path in paths)
    return out


def gp_cone(wd: WiringDiagram, typed: bool = False) -> frozenset:
    """All contribution vectors of all path types."""
    rows = gp_table(wd)
    if typed:
        return frozenset((i, vec) for i, _, vec in rows)
    return frozenset(vec for _, _, vec in rows)


def _staircase(wd: WiringDiagram, i: int, wires: tuple[int, ...]) -> GPPath:
    """Ride each wire in its type-i direction from the crossing where the path
    came onto it (its first crossing, for the first wire) to its crossing with
    the next wire, then ride the last wire out.  Two consecutive wires that do
    not cross raise `crossing_of`'s ValueError."""
    rides = _table(wd, i).rides
    crossing = wd.crossing
    crossings: list[int] = []
    on: list[int] = []
    start = 0
    for wire, nxt in zip(wires, wires[1:]):
        route, at = rides[wire]
        k = crossing.get((wire, nxt) if wire < nxt else (nxt, wire))
        if k is None:
            raise ValueError(f"wires {wire} and {nxt} do not cross")
        stop = at[k] + 1
        if stop <= start:
            raise InvariantViolation(
                "target crossing is not ahead on the wire", {"wire": wire, "next": nxt}
            )
        crossings += route[start:stop]
        on += [wire] * (stop - start)
        start = rides[nxt][1][k] + 1
    route = rides[wires[-1]][0]
    crossings += route[start:]
    on += [wires[-1]] * (len(route) - start)
    return GPPath(i, tuple(crossings), (*on, wires[-1]))


def limiting_path(wd: WiringDiagram, i: int) -> GPPath:
    """Ride wire i+1 to its crossing with wire i, then ride wire i back out."""
    return _staircase(wd, i, (i + 1, i))


class Zones(namedtuple("Zones", "delta z_positions y_positions")):
    __slots__ = ()


def zones(wd: WiringDiagram, i: int) -> Zones:
    """The rightmost and the boundary crossings of the chambers below wire i
    and above wire i+1, with the limiting path; found once per diagram and type.

    Each band's chambers lie between its consecutive caps: 0, the crossings at
    that level, then N+1, listed once per diagram.  A chamber's label is read
    at its left gap.  A zone chamber has no crossing on a neighbouring level
    between its caps, so its boundary crossings are its caps inside 1..N.
    """
    if ("zones", i) in wd.cache:
        return wd.cache["zones", i]
    v_alpha = wd.crossing_of(i, i + 1)
    z: set[int] = set()
    y: set[int] = set()
    for band, caps in enumerate(wd.caps, start=1):
        for lo, hi in zip(caps, caps[1:]):
            label = wd.occupancy[lo][:band]
            if i not in label or i + 1 in label:
                continue
            if hi > v_alpha:
                right_cap = hi if hi <= wd.N else None  # None: a border chamber
                raise InvariantViolation(
                    "zone chamber ends after the simple-root crossing",
                    {"type": i, "label": frozenset(label), "right_cap": right_cap},
                )
            z.add(hi)
            y |= {lo, hi} - {0}  # hi <= v_alpha, so only lo can be the border cap
    wd.cache["zones", i] = Zones(limiting_path(wd, i), frozenset(z), frozenset(y))
    return wd.cache["zones", i]


def _turn_positions(path: GPPath) -> tuple[int, ...]:
    """Positions where the path turns from a forward wire onto a backward one."""
    i = path.type_index
    return tuple(
        sorted([k for k, h, l in zip(path.crossings, path.wires, path.wires[1:]) if h > i >= l])
    )


def path_antichain(wd: WiringDiagram, ar: ARQuiver, path: GPPath) -> Antichain:
    """Positions where the path turns from a forward wire onto a backward one.

    Raises ValueError for a path that `is_gp_path` refuses.
    """
    if tuple(ar.word) != wd.word:
        raise NotAdapted("translation quiver and wiring diagram use different words")
    i = path.type_index
    turns = _record(wd, path)[1]
    hom = ar.hom_table()
    for k in turns:
        if hom[k - 1][i - 1] <= 0:
            raise InvariantViolation("path turns outside the hammock", {"type": i, "turns": turns})
    return Antichain(i, turns)


def antichain_path(wd: WiringDiagram, ar: ARQuiver, a: Antichain) -> GPPath:
    """Rebuild the staircase path whose turning points realize the antichain.

    Crossing k of the type-i poset swaps a row wire <= i with a column wire
    > i.  The path rides wire i+1, then the column and the row wire of each
    turn, in the order in which the row wires cross wire i+1, then wire i; a
    column wire i+1 or a closing wire i already ridden is not listed twice.
    Raises ValueError, as `lusztig.move` does, for an antichain that is not
    among the antichains of its type.
    """
    if tuple(ar.word) != wd.word:
        raise NotAdapted("translation quiver and wiring diagram use different words")
    move(ar, a)  # the lookup contract of lusztig's readers
    i = a.type_index
    pairs = wd.pairs
    wires = [i + 1]
    for _, k in sorted((wd.crossing[pairs[k - 1][0], i + 1], k) for k in a.positions):
        row, column = pairs[k - 1]
        if column != wires[-1]:
            wires.append(column)
        wires.append(row)
    if wires[-1] != i:
        wires.append(i)
    path = _staircase(wd, i, tuple(wires))
    record = _table(wd, i).members.get(path)
    if record is None or record[1] != a.positions:
        raise InvariantViolation(
            "reconstructed staircase does not realize the antichain",
            {"type": i, "antichain": a.positions, "crossings": path.crossings},
        )
    return path


def wiring_dot(wd: WiringDiagram) -> str:
    """Crossings as nodes, wire segments as edges, one rank per level."""
    lines = ["graph wiring {", "  rankdir=LR;"]
    for band in range(1, wd.n + 1):
        names = " ".join(f"v{k};" for k in range(1, wd.N + 1) if wd.level(k) == band)
        if names:
            lines.append(f"  {{ rank=same; {names} }}")
    for k in range(1, wd.N + 1):
        a, b = wd.pairs[k - 1]
        lines.append(f'  v{k} [label="v{a}{b}"];')
    for wire, route in sorted(wd.wire_route.items()):
        lines.append(f"  l{wire} [shape=plaintext]; r{wire} [shape=plaintext];")
        nodes = [f"l{wire}", *(f"v{k}" for k in route), f"r{wire}"]
        for u, v in zip(nodes, nodes[1:]):
            lines.append(f'  {u} -- {v} [label="L{wire}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def paths_json(wd: WiringDiagram, type_index: int | None = None) -> list[dict]:
    return [
        {"type": i, "crossings": list(p.crossings), "k": list(vec)}
        for i, p, vec in gp_table(wd)
        if type_index is None or i == type_index
    ]
