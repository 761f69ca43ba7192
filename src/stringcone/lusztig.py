"""Antichain moves and the crystal operator in the multiplicity parametrization.

For an adapted word, the raising operator of type i acts by adding the move
vector of the unique maximal antichain attaining the maximum of the ladder
functions F_A.

Each type's antichains and their data form one table per translation quiver.
The readers `ideal`, `cominimals`, `move`, `u_vector` and `f_value` look an
antichain up there and raise ValueError for one not in `antichains(ar, i)`.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType
from typing import NamedTuple

from .arquiver import ARQuiver
from .cartan import InvariantViolation, Vector
from .crystal import CrystalGraph, bfs_crystal


@dataclass(frozen=True, order=True)
class Antichain:
    type_index: int
    positions: tuple[int, ...]


class _Entry(NamedTuple):
    """One antichain A of a type table, with its F_A row: F_A(t) is the sum of t
    over `plus` minus the sum over `minus` (0-based indices)."""

    ideal: tuple[int, ...]
    cominimals: tuple[int, ...]
    move: Vector
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    mask: int  # the ideal as a bitmask


def _table(ar: ARQuiver, i: int) -> Mapping[Antichain, _Entry]:
    """Every nonempty antichain of the type-i poset with its entry, ordered by
    (ideal size, positions); built once per translation quiver and type.

    The move is +1 on A and -1 on the translates of the complement minimals (a
    projective has no translate). F_A is the sum over the ideal of t_k minus t
    at the translate; terms that cancel inside the ideal are dropped.
    """
    key = ("antichains", i)
    if key not in ar._cache:
        ground = ar.p_set(i)
        out: list[tuple[int, ...]] = []

        def extend(chosen: list[int], start: int) -> None:
            if chosen:
                out.append(tuple(chosen))
            for idx in range(start, len(ground)):
                cand = ground[idx]
                if all(not ar.leq(c, cand) and not ar.leq(cand, c) for c in chosen):
                    chosen.append(cand)
                    extend(chosen, idx + 1)
                    chosen.pop()

        extend([], 0)
        entries = {}
        for positions in out:
            members = tuple(x for x in ground if any(ar.leq(x, top) for top in positions))
            rest = [x for x in ground if x not in members]
            comin = tuple(x for x in rest if not any(y != x and ar.leq(y, x) for y in rest))
            vec = [0] * ar.N
            for k in positions:
                vec[k - 1] += 1
            for k in comin:
                if k in ar.tau:
                    vec[ar.tau[k] - 1] -= 1
            plus = Counter(k - 1 for k in members)
            minus = Counter(ar.tau[k] - 1 for k in members if k in ar.tau)
            entries[Antichain(i, positions)] = _Entry(
                members,
                comin,
                tuple(vec),
                tuple(sorted((plus - minus).elements())),
                tuple(sorted((minus - plus).elements())),
                sum(1 << k for k in members),
            )
        order = sorted(entries, key=lambda a: (len(entries[a].ideal), a.positions))
        ar._cache[key] = MappingProxyType({a: entries[a] for a in order})
    return ar._cache[key]


def _entry(ar: ARQuiver, a: Antichain) -> _Entry:
    entry = _table(ar, a.type_index).get(a) if 1 <= a.type_index <= ar.n else None
    if entry is None:
        raise ValueError(f"{a} is not among the antichains of its type")
    return entry


def antichains(ar: ARQuiver, i: int) -> tuple[Antichain, ...]:
    """All nonempty antichains of the type-i poset, ordered by (ideal size, positions)."""
    return tuple(_table(ar, i))


def ideal(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Order ideal generated by the antichain inside its poset."""
    return _entry(ar, a).ideal


def cominimals(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Minimal elements of the poset complement of the ideal."""
    return _entry(ar, a).cominimals


def _translated_cominimals(ar: ARQuiver, a: Antichain) -> list[int]:
    """Translates of the complement minimals; a projective has no translate."""
    return [ar.tau[k] for k in cominimals(ar, a) if k in ar.tau]


def move(ar: ARQuiver, a: Antichain) -> Vector:
    """+1 on the antichain, -1 on translates of the complement minimals.

    A complement minimal with no translate (a projective) contributes nothing.
    """
    return _entry(ar, a).move


def u_vector(ar: ARQuiver, a: Antichain) -> Vector:
    """Multiplicity vector of the module whose raising realizes the move."""
    vec = [0] * ar.N
    for k in _translated_cominimals(ar, a):
        vec[k - 1] += 1
    return tuple(vec)


def _evaluate(plus: tuple[int, ...], minus: tuple[int, ...], t) -> int:
    return sum(map(t.__getitem__, plus)) - sum(map(t.__getitem__, minus))


def f_value(ar: ARQuiver, a: Antichain, t) -> int:
    """Sum over the ideal of t_k minus t at the translate (zero for projectives)."""
    e = _entry(ar, a)
    return _evaluate(e.plus, e.minus, t)


def maximal_antichain(ar: ARQuiver, i: int, t) -> Antichain:
    """The unique inclusion-maximal antichain among the F maximizers.

    Checks uniqueness by testing that the union of maximizer ideals is itself a
    maximizer ideal; a failure (InvariantViolation) signals a non-adapted word or
    a quiver without the multiplicity-one property.
    """
    zeta = None
    argmax: list[tuple[Antichain, int]] = []
    for a, e in _table(ar, i).items():
        value = _evaluate(e.plus, e.minus, t)
        if zeta is None or value > zeta:
            zeta = value
            argmax = [(a, e.mask)]
        elif value == zeta:
            argmax.append((a, e.mask))
    union = 0
    for _, mask in argmax:
        union |= mask
    for a, mask in argmax:
        if mask == union:
            return a
    raise InvariantViolation(
        "maximizer antichains have no unique maximum",
        {"type": i, "t": tuple(t), "maximizers": [a.positions for a, _ in argmax]},
    )


def lusztig_e(ar: ARQuiver, i: int, t) -> Vector:
    """Raising operator of type i on a multiplicity vector."""
    t = tuple(t)
    if any(x < 0 for x in t):
        raise ValueError("multiplicity vectors must be nonnegative")
    a_max = maximal_antichain(ar, i, t)
    out = tuple(x + m for x, m in zip(t, move(ar, a_max)))
    if any(x < 0 for x in out):
        raise InvariantViolation(
            "raising gave a negative multiplicity", {"type": i, "t": t, "result": out}
        )
    return out


def all_moves(ar: ARQuiver) -> list[tuple[Antichain, Vector]]:
    """Every antichain move of every type, in canonical order (crystal moves
    only where `quiver.condition_L` holds, which callers that need it check)."""
    return [(a, e.move) for i in range(1, ar.n + 1) for a, e in _table(ar, i).items()]


def move_vectors(ar: ARQuiver, typed: bool = False) -> frozenset:
    """Deduplicated move vectors, optionally tagged with their type."""
    rows = all_moves(ar)
    if typed:
        return frozenset((a.type_index, vec) for a, vec in rows)
    return frozenset(vec for _, vec in rows)


def lusztig_crystal(ar: ARQuiver, depth: int) -> CrystalGraph:
    zero = (0,) * ar.N
    types = tuple(range(1, ar.n + 1))
    return bfs_crystal(zero, types, lambda i, v: lusztig_e(ar, i, v), depth)


def lusztig_weight(ar: ARQuiver, t) -> Vector:
    """Sum of t_k times the k-th root of the ordering."""
    out = [0] * ar.n
    for value, root in zip(t, ar.roots):
        if value:
            for j, x in enumerate(root):
                out[j] += value * x
    return tuple(out)


def moves_json(ar: ARQuiver) -> list[dict]:
    return [
        {"type": a.type_index, "antichain": list(a.positions), "vector": list(vec)}
        for a, vec in all_moves(ar)
    ]


def moves_tsv(ar: ARQuiver) -> str:
    lines = ["type\tantichain\ttranslated_minimals\tvector"]
    for a, vec in all_moves(ar):
        u = _translated_cominimals(ar, a)
        lines.append(
            "{}\t{}\t{}\t{}".format(
                a.type_index,
                ",".join(str(k) for k in a.positions),
                ",".join(str(k) for k in u) or "-",
                ",".join(str(x) for x in vec),
            )
        )
    return "\n".join(lines) + "\n"
