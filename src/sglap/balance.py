"""Switching, balance detection, component counts, and switching equivalence.

A switching function is a plain tuple of +1/-1 values, one per vertex, with
th(v) = ``th[v - 1]``.  A component is balanced when every cycle in it has
positive sign product, or equivalently when some switching function turns
it all-positive.  The Laplacian rank is the vertex count minus the
balanced-component count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .sgraph import SignedGraph, cached_on_graph

__all__ = [
    "BalanceInfo",
    "SwitchingVerdict",
    "switch",
    "balance_info",
    "is_connected",
    "laplacian_rank",
    "switching_equivalent",
    "induced_sign_subgraph",
]


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
    certificate: tuple[int, ...]


class SwitchingVerdict(NamedTuple):
    equivalent: bool
    witness: Optional[tuple[int, ...]]


def switch(g: SignedGraph, th: tuple[int, ...]) -> SignedGraph:
    """Switched graph: each edge sign becomes th(i) * sign * th(j).

    Involutive: switching twice by the same function restores ``g``.

    Raises:
        ValueError: ``th`` does not hold one value per vertex, or a value
            is not +1 or -1.
    """
    if len(th) != g.n:
        raise ValueError(f"switching function has length {len(th)}, graph has {g.n} vertices")
    if not set(th) <= {1, -1}:
        raise ValueError("switching values must be +1 or -1")
    return SignedGraph(
        g.n, frozenset([(i, j, th[i - 1] * s * th[j - 1]) for i, j, s in g.edges])
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
    satisfies sign = theta(i) * theta(j).  Neighbor lists are built from the
    sorted edges, so each ascends and the certificate on an unbalanced
    component does not depend on the order ``g.edges`` iterates in.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, j, s in sorted(g.edges):
        nbrs[i].append((j, s))
        nbrs[j].append((i, s))
    labels, theta, balanced = _propagate_signs(g.n, nbrs)
    return BalanceInfo(
        component_count=len(balanced),
        balanced_count=sum(balanced),
        component_labels=tuple(labels),
        component_balanced=tuple(balanced),
        certificate=tuple(theta),
    )


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
        return SwitchingVerdict(True, tuple(theta))
    return no


def induced_sign_subgraph(g: SignedGraph, sign: int) -> SignedGraph:
    """Subgraph on the same vertex set keeping only edges of ``sign``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return SignedGraph(g.n, frozenset([(i, j, s) for i, j, s in g.edges if s == sign]))

