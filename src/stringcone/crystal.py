"""Breadth-first crystal graph generation shared by both parametrizations."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class CrystalGraph:
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


def same_labelled_graph(g1: CrystalGraph, g2: CrystalGraph) -> bool:
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


def _out_maps(g: CrystalGraph):
    out: dict[tuple[int, ...], dict[int, tuple[int, ...]]] = {}
    for a, i, b in g.edges:
        out.setdefault(a, {})[i] = b
    return out
