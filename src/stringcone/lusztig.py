"""Antichain moves and the crystal operator in the multiplicity parametrization.

For an adapted word, the raising operator of type i acts by adding the move
vector of the unique maximal antichain attaining the maximum of the ladder
functions F_A.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .arquiver import ARQuiver
from .cartan import InvariantViolation, Vector
from .crystal import CrystalGraph, bfs_crystal


@dataclass(frozen=True, order=True)
class Antichain:
    type_index: int
    positions: tuple[int, ...]


def antichains(ar: ARQuiver, i: int) -> tuple[Antichain, ...]:
    """All nonempty antichains of the type-i poset, ordered by (ideal size, positions)."""
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
        result = [Antichain(i, positions) for positions in out]
        result.sort(key=lambda a: (len(ideal(ar, a)), a.positions))
        ar._cache[key] = tuple(result)
    return ar._cache[key]


def ideal(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Order ideal generated by the antichain inside its poset."""
    key = ("ideal", a)
    if key not in ar._cache:
        ground = ar.p_set(a.type_index)
        ar._cache[key] = tuple(
            x for x in ground if any(ar.leq(x, top) for top in a.positions)
        )
    return ar._cache[key]


def cominimals(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Minimal elements of the poset complement of the ideal."""
    key = ("cominimals", a)
    if key not in ar._cache:
        members = set(ideal(ar, a))
        rest = [x for x in ar.p_set(a.type_index) if x not in members]
        ar._cache[key] = tuple(
            x for x in rest if not any(y != x and ar.leq(y, x) for y in rest)
        )
    return ar._cache[key]


def _translated_cominimals(ar: ARQuiver, a: Antichain) -> list[int]:
    """Translates of the complement minimals; a projective has no translate."""
    return [ar.tau[k] for k in cominimals(ar, a) if k in ar.tau]


def move(ar: ARQuiver, a: Antichain) -> Vector:
    """+1 on the antichain, -1 on translates of the complement minimals.

    A complement minimal with no translate (a projective) contributes nothing.
    """
    vec = [0] * ar.N
    for k in a.positions:
        vec[k - 1] += 1
    for k in _translated_cominimals(ar, a):
        vec[k - 1] -= 1
    return tuple(vec)


def u_vector(ar: ARQuiver, a: Antichain) -> Vector:
    """Multiplicity vector of the module whose raising realizes the move."""
    vec = [0] * ar.N
    for k in _translated_cominimals(ar, a):
        vec[k - 1] += 1
    return tuple(vec)


def _row(ar: ARQuiver, a: Antichain) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """F_A as the 0-based indices of t entering with sign + and with sign -,
    and the ideal of A as a bitmask.

    F_A is the sum over the ideal of t_k minus t at the translate (zero for
    projectives); terms that cancel inside the ideal are dropped.
    """
    members = ideal(ar, a)
    plus = Counter(k - 1 for k in members)
    minus = Counter(ar.tau[k] - 1 for k in members if k in ar.tau)
    mask = 0
    for k in members:
        mask |= 1 << k
    return (
        tuple(sorted((plus - minus).elements())),
        tuple(sorted((minus - plus).elements())),
        mask,
    )


def _ladder(
    ar: ARQuiver, i: int
) -> Mapping[Antichain, tuple[tuple[int, ...], tuple[int, ...], int]]:
    """`_row` of every type-i antichain, in `antichains` order."""
    key = ("ladder", i)
    if key not in ar._cache:
        ar._cache[key] = MappingProxyType({a: _row(ar, a) for a in antichains(ar, i)})
    return ar._cache[key]


def _evaluate(plus: tuple[int, ...], minus: tuple[int, ...], t) -> int:
    return sum(map(t.__getitem__, plus)) - sum(map(t.__getitem__, minus))


def f_value(ar: ARQuiver, a: Antichain, t) -> int:
    """Sum over the ideal of t_k minus t at the translate (zero for projectives)."""
    plus, minus, _ = _row(ar, a)
    return _evaluate(plus, minus, t)


def maximal_antichain(ar: ARQuiver, i: int, t) -> Antichain:
    """The unique inclusion-maximal antichain among the F maximizers.

    Checks uniqueness by testing that the union of maximizer ideals is itself a
    maximizer ideal; a failure (InvariantViolation) signals a non-adapted word or
    a quiver without the multiplicity-one property.
    """
    zeta = None
    argmax: list[tuple[Antichain, int]] = []
    for a, (plus, minus, mask) in _ladder(ar, i).items():
        value = _evaluate(plus, minus, t)
        if zeta is None or value > zeta:
            zeta = value
            argmax = [(a, mask)]
        elif value == zeta:
            argmax.append((a, mask))
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
    out = []
    for i in range(1, ar.n + 1):
        for a in antichains(ar, i):
            out.append((a, move(ar, a)))
    return out


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
