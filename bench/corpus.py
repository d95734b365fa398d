"""Seeded benchmark inputs, independent of ``sglap.harness.generate``.

Every graph comes from a ``random.Random`` stream seeded by the workload
seed and drawn only through ``random()``, whose output is stable across
Python versions.  sglap's own splitmix64 generator is never used, so a
change to it cannot change these inputs.  Each corpus entry carries the
reason it is in the corpus.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    """A signed graph on vertices 1..n; ``edges`` holds (i, j, sign) with i < j."""

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def text(self) -> str:
        lines = [f"n {self.n}"]
        lines += [f"{i} {j} {'+' if s > 0 else '-'}" for i, j, s in self.edges]
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Entry:
    name: str
    graph: Graph
    why: str


@dataclass(frozen=True)
class Pair:
    name: str
    a: Graph
    b: Graph
    equivalent: bool
    why: str


def _sign(rng: random.Random, neg_prob: float) -> int:
    return -1 if rng.random() < neg_prob else 1


def gnp(rng: random.Random, n: int, p: float, neg_prob: float, first: int = 1) -> list:
    """Dense pair scan: each pair is an edge with probability p."""
    edges = []
    for i in range(first, first + n - 1):
        for j in range(i + 1, first + n):
            if rng.random() < p:
                edges.append((i, j, _sign(rng, neg_prob)))
    return edges


def components(n: int, edges) -> list[int]:
    """Component label per vertex (index v-1), by breadth-first search."""
    adj = [[] for _ in range(n + 1)]
    for i, j, _ in edges:
        adj[i].append(j)
        adj[j].append(i)
    label = [-1] * (n + 1)
    comp = 0
    for root in range(1, n + 1):
        if label[root] >= 0:
            continue
        label[root] = comp
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if label[v] < 0:
                    label[v] = comp
                    queue.append(v)
        comp += 1
    return label[1:]


def connected_gnp(rng: random.Random, n: int, p: float, neg_prob: float) -> Graph:
    while True:
        edges = gnp(rng, n, p, neg_prob)
        if max(components(n, edges)) == 0:
            return Graph(n, tuple(edges))


def switched(g: Graph, theta) -> Graph:
    """Edge ij takes sign theta[i] * sign * theta[j] (theta indexed by vertex - 1)."""
    return Graph(g.n, tuple((i, j, theta[i - 1] * s * theta[j - 1]) for i, j, s in g.edges))


def sparse(rng: random.Random, n: int, avg_deg: int, neg_prob: float) -> Graph:
    """n * avg_deg / 2 distinct uniform pairs, sorted."""
    m = n * avg_deg // 2
    seen = {}
    while len(seen) < m:
        i = 1 + int(rng.random() * n)
        j = 1 + int(rng.random() * n)
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key not in seen:
            seen[key] = _sign(rng, neg_prob)
    return Graph(n, tuple((i, j, s) for (i, j), s in sorted(seen.items())))


def _on_cycle(g: Graph, k: int) -> bool:
    """Whether edge k lies on a cycle: its endpoints stay joined without it."""
    rest = g.edges[:k] + g.edges[k + 1:]
    label = components(g.n, rest)
    i, j, _ = g.edges[k]
    return label[i - 1] == label[j - 1]


def bounds_corpus(seed: int, size: int = 2) -> list[Entry]:
    rng = random.Random(seed)
    out = []
    for k in range(size):
        p = 0.1 if k % 2 == 0 else 0.5
        out.append(Entry(
            f"g{k}-p{p}", connected_gnp(rng, 60, p, 0.5),
            "connected so every bound applies; sparse p=0.1 and dense p=0.5 alternate "
            "at one order so the cost stays on the four n=60 eigensolves"))
    return out


def report_corpus(seed: int) -> list[Entry]:
    """Seven graphs, n from 20 to 40; one n=40 graph carries half the solve cost."""
    rng = random.Random(seed)
    out = [
        Entry("mixed-n40", connected_gnp(rng, 40, 0.3, 0.5),
              "largest order, mixed signs: the typical row and most of the solve cost"),
        Entry("dense-n24", connected_gnp(rng, 24, 0.6, 0.3),
              "dense with more triangles, so the trace bounds see a large t_net"),
    ]
    # Two components plus four isolated vertices: every connectivity guard
    # renders an em dash, and isolated vertices have no average 2-degree.
    split = gnp(rng, 10, 0.5, 0.5) + gnp(rng, 10, 0.5, 0.5, first=11)
    out.append(Entry("split-n24", Graph(24, tuple(split)),
                     "disconnected with isolated vertices: connectivity guards fire"))
    out.append(Entry("allpos-n20", connected_gnp(rng, 20, 0.3, 0.0),
                     "all-positive: the given row equals the (G,+1) row"))
    out.append(Entry("allneg-n24", connected_gnp(rng, 24, 0.3, 1.0),
                     "all-negative: the given row equals the (G,-1) row"))
    base = connected_gnp(rng, 22, 0.3, 0.0)
    theta = [-1 if rng.random() < 0.5 else 1 for _ in range(base.n)]
    out.append(Entry("balanced-n22", switched(base, theta),
                     "mixed signs but balanced: cospectral with its (G,+1) row, rank n-1"))
    out.append(Entry("twoedge-n20", Graph(20, ((1, 2, 1), (3, 4, -1))),
                     "rank n-b = 2, so the rank-guarded LB-TR-2 renders an em dash"))
    return out


def switch_corpus(seed: int, size: int = 2, n: int = 5000, avg_deg: int = 10) -> list[Pair]:
    rng = random.Random(seed)
    out = []
    for k in range(size):
        a = sparse(rng, n, avg_deg, 0.5)
        theta = [-1 if rng.random() < 0.5 else 1 for _ in range(n)]
        b = switched(a, theta)
        if k % 2 == 0:
            out.append(Pair(f"eq{k}", a, b, True,
                            "b is a switching of a by construction: full balance search "
                            "over the product signature, then a witness"))
            continue
        # Flipping one edge that lies on a cycle makes that cycle negative in
        # the product signature, so no switching maps a to b.
        k_edge = int(rng.random() * len(b.edges))
        while not _on_cycle(b, k_edge):
            k_edge = int(rng.random() * len(b.edges))
        i, j, s = b.edges[k_edge]
        flipped = b.edges[:k_edge] + ((i, j, -s),) + b.edges[k_edge + 1:]
        out.append(Pair(f"neq{k}", a, Graph(n, flipped), False,
                        "same underlying graph with one cycle edge flipped: the same "
                        "search, ending in an unbalanced component"))
    return out
