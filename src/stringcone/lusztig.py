"""Antichain moves and the crystal operator in the multiplicity parametrization.

For an adapted word, the raising operator of type i acts by adding the move
vector of the unique maximal antichain attaining the maximum of the ladder
functions F_A.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arquiver import ARQuiver
from .cartan import InvariantViolation, Vector
from .crystal import CrystalGraph, bfs_crystal


@dataclass(frozen=True, order=True)
class Antichain:
    type_index: int
    positions: tuple[int, ...]


def antichains(ar: ARQuiver, i: int) -> list[Antichain]:
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
        ar._cache[key] = result
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
        ground = ar.p_set(a.type_index)
        rest = [x for x in ground if x not in set(ideal(ar, a))]
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


def f_value(ar: ARQuiver, a: Antichain, t) -> int:
    """Sum over the ideal of t_k minus t at the translate (zero for projectives)."""
    total = 0
    for k in ideal(ar, a):
        total += t[k - 1]
        if k in ar.tau:
            total -= t[ar.tau[k] - 1]
    return total


def maximal_antichain(ar: ARQuiver, i: int, t) -> Antichain:
    """The unique inclusion-maximal antichain among the F maximizers.

    Checks uniqueness by testing that the union of maximizer ideals is itself a
    maximizer ideal; a failure (InvariantViolation) signals a non-adapted word or
    a quiver without the multiplicity-one property.
    """
    choices = antichains(ar, i)
    values = [f_value(ar, a, t) for a in choices]
    zeta = max(values)
    argmax = [a for a, v in zip(choices, values) if v == zeta]
    union: set[int] = set()
    for a in argmax:
        union.update(ideal(ar, a))
    for a in argmax:
        if set(ideal(ar, a)) == union:
            return a
    raise InvariantViolation(
        "maximizer antichains have no unique maximum",
        {"type": i, "t": tuple(t), "maximizers": [a.positions for a in argmax]},
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
        for j in range(ar.n):
            out[j] += value * root[j]
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
