"""Switching, balance detection, component counts, and switching equivalence.

A component is balanced when every cycle in it has positive sign product,
or equivalently when some vertex signing switches it to all-positive edges.
The Laplacian rank is the vertex count minus the balanced-component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .sgraph import SignedEdge, SignedGraph, cached_on_graph

__all__ = [
    "SwitchingFunction",
    "BalanceInfo",
    "SwitchingVerdict",
    "switch",
    "balance_info",
    "component_count",
    "is_connected",
    "laplacian_rank",
    "switching_equivalent",
    "induced_sign_subgraph",
]


@dataclass(frozen=True)
class SwitchingFunction:
    """A +1/-1 value per vertex; index with a 1-based vertex id, ``fn[v]``."""

    theta: tuple[int, ...]

    def __post_init__(self):
        if any(t not in (1, -1) for t in self.theta):
            raise ValueError("switching values must be +1 or -1")

    def __len__(self) -> int:
        return len(self.theta)

    def __getitem__(self, vertex: int) -> int:
        if not 1 <= vertex <= len(self.theta):
            raise IndexError(f"vertex {vertex} out of range 1..{len(self.theta)}")
        return self.theta[vertex - 1]


@dataclass(frozen=True)
class BalanceInfo:
    """Per-component balance data plus a positivizing certificate.

    ``certificate`` switches every balanced component to all-positive edges;
    its values on unbalanced components come from the same search tree but
    carry no guarantee.
    """

    component_count: int
    balanced_count: int
    component_labels: tuple[int, ...]
    component_balanced: tuple[bool, ...]
    certificate: SwitchingFunction


class SwitchingVerdict(NamedTuple):
    equivalent: bool
    witness: Optional[SwitchingFunction]


def switch(g: SignedGraph, th: SwitchingFunction) -> SignedGraph:
    """Switched graph: each edge sign becomes th[i] * sign * th[j].

    Involutive: switching twice by the same function restores ``g``.
    """
    if len(th) != g.n:
        raise ValueError(f"switching function has length {len(th)}, graph has {g.n} vertices")
    return SignedGraph(
        g.n, frozenset([SignedEdge(e.i, e.j, th[e.i] * e.sign * th[e.j]) for e in g.edges])
    )


def _propagate_signs(n: int, nbrs) -> tuple[list[int], list[int], list[bool]]:
    """Breadth-first sign propagation over vertices 1..n, where ``nbrs[u]``
    lists u's (neighbor, sign) pairs.

    Roots are taken in vertex order with theta = +1; a newly reached vertex
    gets theta(v) = sign(uv) * theta(u), and any other edge with sign !=
    theta(u) * theta(v) marks its component unbalanced.  Returns each
    vertex's component label and theta (index v - 1) and each component's
    balance flag.  On a balanced component theta is unique given its root,
    whatever order ``nbrs`` lists neighbors in.
    """
    labels = [-1] * (n + 1)
    theta = [1] * (n + 1)
    balanced: list[bool] = []
    for root in range(1, n + 1):
        if labels[root] >= 0:
            continue
        comp = len(balanced)
        ok = True
        labels[root] = comp
        queue = [root]
        for u in queue:  # the list grows while it is read: a FIFO queue
            tu = theta[u]
            for v, s in nbrs[u]:
                if labels[v] < 0:
                    labels[v] = comp
                    theta[v] = s * tu
                    queue.append(v)
                elif theta[v] != s * tu:
                    ok = False
        balanced.append(ok)
    return labels[1:], theta[1:], balanced


@cached_on_graph
def balance_info(g: SignedGraph) -> BalanceInfo:
    """Detect balanced components by breadth-first sign propagation.

    Each component root gets theta = +1 and every newly reached vertex gets
    theta(v) = sign(uv) * theta(u); the component is balanced iff every edge
    satisfies sign = theta(i) * theta(j).
    """
    labels, theta, balanced = _propagate_signs(g.n, g.neighbor_map())
    return BalanceInfo(
        component_count=len(balanced),
        balanced_count=sum(balanced),
        component_labels=tuple(labels),
        component_balanced=tuple(balanced),
        certificate=SwitchingFunction(tuple(theta)),
    )


def component_count(g: SignedGraph) -> int:
    return balance_info(g).component_count


def is_connected(g: SignedGraph) -> bool:
    return balance_info(g).component_count == 1


def laplacian_rank(g: SignedGraph) -> int:
    """Rank of the signed Laplacian: n minus the number of balanced components."""
    return g.n - balance_info(g).balanced_count


def switching_equivalent(g1: SignedGraph, g2: SignedGraph) -> SwitchingVerdict:
    """Decide whether some vertex signing turns ``g1`` into ``g2``.

    Requires identical underlying graphs; then the two are equivalent iff
    the product signature (edgewise sign product) is balanced on every
    component.  Runs in O(n + m) without building a product graph: one pass
    over g1's edges looks each up in g2's edge set, which both compares the
    underlying graphs and lists the product signs per vertex, then one
    breadth-first search.  The returned witness satisfies
    switch(g1, witness) == g2 and is +1 at the smallest vertex of each
    component.
    """
    no = SwitchingVerdict(False, None)
    if g1.n != g2.n or g1.m != g2.m:
        return no
    edges2 = g2.edges
    product: list[list[tuple[int, int]]] = [[] for _ in range(g1.n + 1)]
    for e in g1.edges:
        i, j, s = e
        if e in edges2:
            p = 1
        elif (i, j, -s) in edges2:
            p = -1
        else:  # with equal m, a missing pair means different underlying graphs
            return no
        product[i].append((j, p))
        product[j].append((i, p))
    _, theta, balanced = _propagate_signs(g1.n, product)
    if all(balanced):
        return SwitchingVerdict(True, SwitchingFunction(tuple(theta)))
    return no


def induced_sign_subgraph(g: SignedGraph, sign: int) -> SignedGraph:
    """Subgraph on the same vertex set keeping only edges of ``sign``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return SignedGraph(g.n, frozenset(e for e in g.edges if e.sign == sign))

