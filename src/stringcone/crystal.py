"""Breadth-first crystal graph generation shared by both parametrizations."""

from __future__ import annotations

from collections import deque
from typing import NamedTuple


class CrystalGraph(NamedTuple):
    source: tuple[int, ...]
    vertices: frozenset[tuple[int, ...]]
    edges: frozenset[tuple[tuple[int, ...], int, tuple[int, ...]]]


def bfs_crystal(source, types, step, depth: int) -> CrystalGraph:
    """Close the source under the raising operators, up to the given depth.

    step(i, v) must return the raised vertex; edges are recorded for every
    expanded vertex, so vertices at the depth horizon have no outgoing edges.
    """
    source = tuple(source)
    dist = {source: 0}
    edges = set()
    queue = deque([source])
    while queue:
        v = queue.popleft()
        if dist[v] >= depth:
            continue
        for i in types:
            w = tuple(step(i, v))
            edges.add((v, i, w))
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return CrystalGraph(source, frozenset(dist), frozenset(edges))
