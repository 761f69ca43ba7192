"""Translation quiver built combinatorially from a word adapted to a quiver.

Positions 1..N carry the roots of the induced reflection ordering.  Arrows
join positions whose letters are adjacent in the diagram with no intermediate
occurrence of either letter; the translation sends a position to the previous
occurrence of the same letter.  One pass over the word finds both, and each
position's down-set in the path order, from the letters' last positions.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from types import MappingProxyType

from .cartan import (
    InvariantViolation,
    Vector,
    diagram_type,
    reflection_ordering,
    simple_root,
)
from .quiver import (
    NotAdapted, Quiver, adapted_word, adjacency, check_vertex, hom_to_simple, is_adapted,
    segmented_cycle,
)


class ARQuiver(namedtuple("ARQuiver", [
    "quiver", "word", "roots", "arrows", "tau", "position_by_root",
    "simple_positions",  # position of the simple root at i, index i-1
    "down",  # index k-1: bit j for each j <= k
])):
    @cached_property
    def cache(self) -> dict:
        """Tables built on first use; a `_replace` copy starts with none."""
        return {}

    @property
    def N(self) -> int:
        return len(self.word)

    @property
    def n(self) -> int:
        return self.quiver.diagram.n

    def root(self, k: int) -> Vector:
        return self.roots[k - 1]

    def level_positions(self, i: int) -> tuple[int, ...]:
        check_vertex(self.quiver, i)
        return tuple(k for k in range(1, self.N + 1) if self.word[k - 1] == i)

    def leq(self, k1: int, k2: int) -> bool:
        """Reflexive reachability along arrows."""
        return self.down[k2 - 1] >> k1 & 1 == 1

    def hammock(self, i: int) -> tuple[int, ...]:
        """Positions whose root involves the simple root at i."""
        check_vertex(self.quiver, i)
        return tuple(k for k in range(1, self.N + 1) if self.roots[k - 1][i - 1] > 0)

    def hom_table(self) -> tuple[tuple[int, ...], ...]:
        """Row k-1, column i-1: dim Hom from the module at position k to the
        simple at i (`quiver.hom_to_simple`), filled once per translation quiver."""
        if "hom" not in self.cache:
            self.cache["hom"] = tuple(
                tuple(hom_to_simple(self, k, i) for i in range(1, self.n + 1))
                for k in range(1, self.N + 1)
            )
        return self.cache["hom"]

    def p_set(self, i: int) -> tuple[int, ...]:
        """Positions whose module admits a nonzero map to the simple at i, read
        for every i from the hom table at the first call."""
        if ("p", i) not in self.cache:
            check_vertex(self.quiver, i)
            for j, column in enumerate(zip(*self.hom_table()), start=1):
                self.cache["p", j] = tuple(k for k, d in enumerate(column, start=1) if d > 0)
        return self.cache["p", i]


def build_ar(q: Quiver, word=None) -> ARQuiver:
    if word is None:
        word = adapted_word(q)
    word = tuple(word)
    if not is_adapted(word, q):
        raise NotAdapted(f"word {','.join(map(str, word))} is not adapted to the quiver")
    roots = reflection_ordering(q.diagram, word)
    # arrows into k leave the neighbour letters' last positions after k's translate
    neighbours = adjacency(q)
    last = [0] * (q.diagram.n + 1)
    arrows = []
    tau = {}
    down = []
    for k, letter in enumerate(word, start=1):
        prev = last[letter]
        if prev:
            tau[k] = prev
        mask = 1 << k
        for a, _ in neighbours[letter - 1]:
            if last[a] > prev:
                arrows.append((last[a], k))
                mask |= down[last[a] - 1]
        down.append(mask)
        last[letter] = k
    arrows.sort()
    position_by_root = {r: k + 1 for k, r in enumerate(roots)}
    return ARQuiver(
        quiver=q,
        word=word,
        roots=roots,
        arrows=tuple(arrows),
        tau=tau,
        position_by_root=position_by_root,
        simple_positions=tuple(
            position_by_root[simple_root(q.diagram, i)] for i in range(1, q.diagram.n + 1)
        ),
        down=tuple(down),
    )


def projective_dimension_vector(q: Quiver, i: int) -> Vector:
    """Dimension vector of the projective cover of the simple at i (path counts)."""
    return _path_indicator(q, i, forward=True)


def injective_dimension_vector(q: Quiver, i: int) -> Vector:
    """Dimension vector of the injective envelope of the simple at i."""
    return _path_indicator(q, i, forward=False)


def _path_indicator(q: Quiver, i: int, forward: bool) -> Vector:
    """Indicator of the vertices reached from i along (forward) or against the arrows."""
    neighbours = adjacency(q)
    seen = {i}
    stack = [i]
    while stack:
        for w, into in neighbours[stack.pop() - 1]:
            if into != forward and w not in seen:
                seen.add(w)
                stack.append(w)
    return tuple(1 if v in seen else 0 for v in range(1, q.diagram.n + 1))


class HammockGrid(namedtuple("HammockGrid", "type_index left_segment right_segment cells")):
    """Type A only: the [i] x [n+1-i] grid carrying the hammock of type i."""

    __slots__ = ()

    @staticmethod
    def leq(c1: tuple[int, int], c2: tuple[int, int]) -> bool:
        return c1[0] >= c2[0] and c1[1] >= c2[1]


def grid_A(ar: ARQuiver, i: int) -> HammockGrid:
    """Lay the type-i hammock out on the grid given by the i-segmented cycle.

    The cell (k, l) with 1 <= k <= i < l <= n+1 carries the root spanning the
    interval [j_k, j_l - 1] of the segmented cycle (j_1 .. j_i | j_{i+1} .. j_{n+1}).
    The cells are a read-only mapping.
    """
    q = ar.quiver
    if diagram_type(q.diagram) != "A":
        raise ValueError("hammock grids exist in type A only")
    n = q.diagram.n
    left, right = segmented_cycle(q, i)
    j = left + right
    cells = {}
    for k in range(1, i + 1):
        for l in range(i + 1, n + 2):
            lo, hi = j[k - 1], j[l - 1]
            if lo >= hi:
                raise InvariantViolation(
                    "grid cell spans an empty interval", {"cell": (k, l), "ends": (lo, hi)}
                )
            root = tuple(1 if lo <= v <= hi - 1 else 0 for v in range(1, n + 1))
            cells[(k, l)] = ar.position_by_root[root]
    if sorted(cells.values()) != sorted(ar.hammock(i)):
        raise InvariantViolation(
            "grid cells do not cover the hammock", {"type": i, "cells": cells}
        )
    return HammockGrid(i, left, right, MappingProxyType(cells))


def ar_dot(ar: ARQuiver) -> str:
    """Graphviz rendering, one rank per level, node ids v<k>."""
    lines = ["digraph ar {", "  rankdir=LR;"]
    for i in range(1, ar.n + 1):
        positions = ar.level_positions(i)
        if positions:
            names = " ".join(f"v{k};" for k in positions)
            lines.append(f"  {{ rank=same; {names} }}")
    for k in range(1, ar.N + 1):
        coords = ",".join(str(x) for x in ar.root(k))
        lines.append(f'  v{k} [label="({coords})"];')
    for k, k2 in ar.arrows:
        lines.append(f"  v{k} -> v{k2};")
    lines.append("}")
    return "\n".join(lines) + "\n"
