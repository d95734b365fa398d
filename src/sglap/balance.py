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

import numpy as np

from .sgraph import SignedGraph, cached_on_graph, edge_arrays

__all__ = [
    "BalanceInfo",
    "SwitchingVerdict",
    "switch",
    "balance_info",
    "is_connected",
    "laplacian_rank",
    "switching_equivalent",
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
    th = [int(t) for t in th]  # a numpy +1 would make numpy edge signs
    return SignedGraph(
        g.n, frozenset([(i, j, th[i - 1] * s * th[j - 1]) for i, j, s in g.edges])
    )


def _propagate_signs(n: int, nbrs) -> tuple[list[int], list[int], list[bool]]:
    """Breadth-first sign propagation over vertices 1..n, where ``nbrs(u)``
    iterates u's (neighbor, sign) pairs; it is called once per vertex.

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
            for v, s in nbrs(u):
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
    satisfies sign = theta(i) * theta(j).  Neighbor lists are built from
    :func:`edge_arrays`, sorted by pair, so each ascends and the certificate
    on an unbalanced component does not depend on the order ``g.edges``
    iterates in.
    """
    nbrs: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for i, j, s in zip(*(column.tolist() for column in edge_arrays(g))):
        nbrs[i].append((j, s))
        nbrs[j].append((i, s))
    labels, theta, balanced = _propagate_signs(g.n, nbrs.__getitem__)
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
    component.  Runs in O(n + m log m) without building a product graph:
    both graphs' :func:`edge_arrays` are sorted by pair, so comparing their
    index arrays compares the underlying graphs and multiplying their sign
    arrays gives the product signature; a sort of the edges taken from both
    ends lists it per vertex, then one breadth-first search.  The returned
    witness satisfies switch(g1, witness) == g2 and is +1 at the smallest
    vertex of each component.
    """
    no = SwitchingVerdict(False, None)
    if g1.n != g2.n or g1.m != g2.m:
        return no
    i, j, s1 = edge_arrays(g1)
    i2, j2, s2 = edge_arrays(g2)
    if not (np.array_equal(i, i2) and np.array_equal(j, j2)):
        return no
    # Each edge from both ends, its higher end first, stably sorted by
    # source: since the pairs ascend by (i, j), vertex v's targets are then
    # one ascending slice, the lower ones and then the higher ones.
    src = np.concatenate((j, i))
    order = np.argsort(src, kind="stable")
    ends = np.bincount(src, minlength=g1.n + 1).cumsum().tolist()
    del src
    dst = np.concatenate((i, j))[order]
    product = (s1 * s2)[order % g1.m]
    del order

    def nbrs(u):
        # Python ints for one vertex at a time: the search asks once per vertex.
        a, b = ends[u - 1], ends[u]
        return zip(dst[a:b].tolist(), product[a:b].tolist())

    _, theta, balanced = _propagate_signs(g1.n, nbrs)
    if all(balanced):
        return SwitchingVerdict(True, tuple(theta))
    return no
