"""Antichain moves and the crystal operator in the multiplicity parametrization.

For an adapted word, the raising operator of type i acts by adding the move
vector of the unique maximal antichain attaining the maximum of the ladder
functions F_A.

Each type's antichains and their data form one table per translation quiver,
in (ideal size, positions) order.  Removing an antichain's last position from
its ideal leaves the ideal of an earlier antichain, or nothing, so each F_A is
an earlier F plus one term: `maximal_antichain` evaluates every F_A of a type
in one pass along these ladder steps, while `f_value` sums over the ideal,
which an entry keeps only as a bitmask: `ideal` reads its positions off the
mask in ascending order.  The readers `ideal`, `cominimals`, `move`,
`u_vector` and `f_value` look an antichain up in the table and raise
ValueError for one not in `antichains(ar, i)`.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from operator import add, neg
from types import MappingProxyType

from .arquiver import ARQuiver
from .cartan import InvariantViolation, Vector
from .crystal import CrystalGraph, bfs_crystal


class Antichain(namedtuple("Antichain", "type_index positions")):
    __slots__ = ()


class _Entry(namedtuple("_Entry", "cominimals move u mask")):
    """One antichain A of a type table: its complement minimals, move vector and
    u-vector, and its order ideal as a bitmask (bit k for position k)."""

    __slots__ = ()


class _TypeTable(namedtuple("_TypeTable", "entries rows steps")):
    """The antichains of one type in (ideal size, positions) order: `rows` holds
    each (antichain, entry) and `steps` each ladder step (parent, x, tx), index
    for index, and `entries` maps an antichain to its entry.

    x is the 0-based index of A's last position, a maximal element of A's
    ideal; tx is that of its translate, or -1 for a projective.  Removing the
    position from the ideal leaves the ideal of the antichain at index `parent`,
    or nothing (-1), so F_A(t) = F_parent(t) + t[x] - t[tx].
    """

    __slots__ = ()


def _table(ar: ARQuiver, i: int) -> _TypeTable:
    """Every nonempty antichain of the type-i poset with its entry and ladder
    step; built once per translation quiver and type.

    Each ground element has a down-set bitmask, its `ar.down` mask cut to the
    ground.  An ideal is the OR of its positions' down-sets, and a candidate is
    incomparable with the chosen positions when it is outside their ideal and
    its down-set misses them.  The antichains come from one list that grows
    as it is read: each row appends the rows that add one later candidate.
    One scan of the ground per antichain finds the complement minimals, the
    elements of the rest whose down-set meets the rest only in themselves.
    The u-vector counts their translates, and the move is +1 on A minus the
    u-vector.
    """
    key = ("antichains", i)
    if key not in ar.cache:
        ground = ar.p_set(i)
        everything = sum(1 << x for x in ground)
        down = {x: ar.down[x - 1] & everything for x in ground}
        # rows (ideal mask, chosen mask, positions, next candidate index), the
        # empty antichain first; reading a row appends its one-larger extensions
        found = [(0, 0, (), 0)]
        for ideal_mask, chosen_mask, positions, start in found:
            for idx in range(start, len(ground)):
                cand = ground[idx]
                if not (ideal_mask >> cand & 1 or down[cand] & chosen_mask):
                    found.append((ideal_mask | down[cand], chosen_mask | 1 << cand,
                                  positions + (cand,), idx + 1))
        found = sorted(found[1:], key=lambda row: (row[0].bit_count(), row[2]))
        index = {row[0]: j for j, row in enumerate(found)}
        entries = {}
        steps = []
        for mask, _, positions, _ in found:
            a = Antichain(i, positions)
            rest = everything & ~mask
            comin = tuple(x for x in ground if rest >> x & 1 and down[x] & rest == 1 << x)
            u = [0] * ar.N
            for k in _translates(ar, comin):
                u[k - 1] += 1
            vec = list(map(neg, u))
            for k in positions:
                vec[k - 1] += 1
            entries[a] = _Entry(comin, tuple(vec), tuple(u), mask)
            x = positions[-1]
            below = mask & ~(1 << x)
            if not below:
                parent = -1
            elif below in index:
                parent = index[below]
            else:
                raise InvariantViolation(
                    "ideal minus a maximal element is no antichain's ideal",
                    {"type": i, "antichain": positions, "removed": x},
                )
            steps.append((parent, x - 1, ar.tau[x] - 1 if x in ar.tau else -1))
        ar.cache[key] = _TypeTable(
            MappingProxyType(entries), tuple(entries.items()), tuple(steps)
        )
    return ar.cache[key]


def _entry(ar: ARQuiver, a: Antichain) -> _Entry:
    entry = _table(ar, a.type_index).entries.get(a) if 1 <= a.type_index <= ar.n else None
    if entry is None:
        raise ValueError(f"{a} is not among the antichains of its type")
    return entry


def antichains(ar: ARQuiver, i: int) -> tuple[Antichain, ...]:
    """All nonempty antichains of the type-i poset, ordered by (ideal size, positions)."""
    return tuple(a for a, _ in _table(ar, i).rows)


def antichain_rows(ar: ARQuiver, i: int) -> Iterator[tuple]:
    """Each antichain of `antichains(ar, i)`, in that order, as the tuple
    (antichain, cominimals, move, u-vector)."""
    for a, e in _table(ar, i).rows:
        yield a, e.cominimals, e.move, e.u


def ideal(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Order ideal generated by the antichain inside its poset, ascending."""
    mask = _entry(ar, a).mask
    return tuple(x for x in ar.p_set(a.type_index) if mask >> x & 1)


def cominimals(ar: ARQuiver, a: Antichain) -> tuple[int, ...]:
    """Minimal elements of the poset complement of the ideal."""
    return _entry(ar, a).cominimals


def _translates(ar: ARQuiver, comin) -> list[int]:
    """Translates of the complement minimals; a projective has no translate."""
    return [ar.tau[k] for k in comin if k in ar.tau]


def move(ar: ARQuiver, a: Antichain) -> Vector:
    """+1 on the antichain, -1 on translates of the complement minimals.

    A complement minimal with no translate (a projective) contributes nothing.
    """
    return _entry(ar, a).move


def u_vector(ar: ARQuiver, a: Antichain) -> Vector:
    """Multiplicity vector counting the translates of the complement minimals:
    the module whose raising realizes the move."""
    return _entry(ar, a).u


def _check_length(ar: ARQuiver, t) -> None:
    if len(t) != ar.N:
        raise ValueError(f"multiplicity vector has {len(t)} entries, not N = {ar.N}")


def f_value(ar: ARQuiver, a: Antichain, t) -> int:
    """Sum over the ideal of t_k minus t at the translate (zero for projectives)."""
    _check_length(ar, t)
    return sum(t[k - 1] - (t[ar.tau[k] - 1] if k in ar.tau else 0) for k in ideal(ar, a))


def maximal_antichain(ar: ARQuiver, i: int, t) -> Antichain:
    """The unique inclusion-maximal antichain among the F maximizers.

    Evaluates every F_A in one pass along the ladder steps.  Checks uniqueness
    by testing that the union of maximizer ideals is itself a maximizer ideal; a
    failure (InvariantViolation) signals a non-adapted word or a quiver without
    the multiplicity-one property.
    """
    return _maximal_row(ar, i, t)[0]


def _maximal_row(ar: ARQuiver, i: int, t) -> tuple[Antichain, _Entry]:
    """`maximal_antichain` with its table entry."""
    _check_length(ar, t)
    table = _table(ar, i)
    tz = (*t, 0)  # index -1 reads 0: no translate
    f = [0] * (len(table.steps) + 1)  # f[-1] stays 0: the empty ideal
    j = 0
    for parent, x, tx in table.steps:
        f[j] = f[parent] + tz[x] - tz[tx]
        j += 1
    f.pop()
    zeta = max(f)
    rows = table.rows
    argmax = [rows[j] for j, value in enumerate(f) if value == zeta]
    union = 0
    for _, e in argmax:
        union |= e.mask
    for row in argmax:
        if row[1].mask == union:
            return row
    raise InvariantViolation(
        "maximizer antichains have no unique maximum",
        {"type": i, "t": tuple(t), "maximizers": [a.positions for a, _ in argmax]},
    )


def lusztig_e(ar: ARQuiver, i: int, t) -> Vector:
    """Raising operator of type i on a multiplicity vector."""
    t = tuple(t)
    if min(t, default=0) < 0:
        raise ValueError("multiplicity vectors must be nonnegative")
    out = tuple(map(add, t, _maximal_row(ar, i, t)[1].move))
    if min(out, default=0) < 0:
        raise InvariantViolation(
            "raising gave a negative multiplicity", {"type": i, "t": t, "result": out}
        )
    return out


def all_moves(ar: ARQuiver) -> list[tuple[Antichain, Vector]]:
    """Every antichain move of every type, in canonical order (crystal moves
    only where `quiver.condition_L` holds, which callers that need it check)."""
    return [(a, e.move) for i in range(1, ar.n + 1) for a, e in _table(ar, i).rows]


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
        u = _translates(ar, cominimals(ar, a))
        lines.append(
            "{}\t{}\t{}\t{}".format(
                a.type_index,
                ",".join(str(k) for k in a.positions),
                ",".join(str(k) for k in u) or "-",
                ",".join(str(x) for x in vec),
            )
        )
    return "\n".join(lines) + "\n"
