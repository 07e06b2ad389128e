"""Seeded input generators that are the benchmark's own, not the package's."""

from __future__ import annotations

import numpy as np


def grid_network_arrays(rng: np.random.Generator, side: int, spacing: float, n_spurs: int,
                        extra_share: float = 0.3):
    """Vertices and segments of a connected network with cycles and spurs.

    A side x side grid with jittered vertices; a random spanning tree of the
    grid graph, plus `extra_share` of the remaining grid edges (which close
    cycles), plus `n_spurs` dangling one-segment spurs (degree-1 ends).
    """
    ij = np.array([(i, j) for i in range(side) for j in range(side)], dtype=float)
    verts = ij * spacing + rng.uniform(-0.2, 0.2, size=ij.shape) * spacing
    edges = []
    for i in range(side):
        for j in range(side):
            v = i * side + j
            if i + 1 < side:
                edges.append((v, v + side))
            if j + 1 < side:
                edges.append((v, v + 1))
    edges = np.array(edges)
    # random spanning tree: Kruskal over a random edge order
    parent = list(range(side * side))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    tree, rest = [], []
    for k in rng.permutation(len(edges)):
        a, b = edges[k]
        ra, rb = find(int(a)), find(int(b))
        if ra != rb:
            parent[ra] = rb
            tree.append(k)
        else:
            rest.append(k)
    rest = np.array(rest)
    extra = rest[rng.uniform(size=len(rest)) < extra_share]
    segs = [tuple(edges[k]) for k in sorted(tree + extra.tolist())]
    verts = list(map(tuple, verts))
    for v in rng.choice(side * side, size=n_spurs, replace=False):
        ang = rng.uniform(0.0, 2.0 * np.pi)
        length = spacing * rng.uniform(0.2, 0.4)
        x, y = verts[v]
        verts.append((x + length * np.cos(ang), y + length * np.sin(ang)))
        segs.append((int(v), len(verts) - 1))
    return np.array(verts), np.array(segs, dtype=int)
