"""Switching, balance detection, component counts, and switching equivalence.

A component is balanced when every cycle in it has positive sign product,
or equivalently when some vertex signing switches it to all-positive edges.
The Laplacian rank is the vertex count minus the balanced-component count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .sgraph import SignedGraph, cached_on_graph

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
    return SignedGraph.from_edges(
        g.n, [(e.i, e.j, th[e.i] * e.sign * th[e.j]) for e in g.edges]
    )


@cached_on_graph
def balance_info(g: SignedGraph) -> BalanceInfo:
    """Detect balanced components by breadth-first sign propagation.

    Each component root gets theta = +1 and every newly reached vertex gets
    theta(v) = sign(uv) * theta(u); the component is balanced iff afterwards
    every edge satisfies sign = theta(i) * theta(j).
    """
    nbrs = g.neighbor_map()
    labels = [-1] * g.n
    theta = [1] * g.n
    comp = 0
    for root in range(1, g.n + 1):
        if labels[root - 1] >= 0:
            continue
        labels[root - 1] = comp
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, s in nbrs[u]:
                if labels[v - 1] < 0:
                    labels[v - 1] = comp
                    theta[v - 1] = s * theta[u - 1]
                    queue.append(v)
        comp += 1
    balanced = [True] * comp
    for e in g.edges:
        if e.sign != theta[e.i - 1] * theta[e.j - 1]:
            balanced[labels[e.i - 1]] = False
    return BalanceInfo(
        component_count=comp,
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
    component.  The returned witness satisfies switch(g1, witness) == g2.
    """
    if g1.n != g2.n or g1.underlying_pairs() != g2.underlying_pairs():
        return SwitchingVerdict(False, None)
    s2 = {(e.i, e.j): e.sign for e in g2.edges}
    product = SignedGraph.from_edges(
        g1.n, [(e.i, e.j, e.sign * s2[(e.i, e.j)]) for e in g1.edges]
    )
    info = balance_info(product)
    if info.balanced_count == info.component_count:
        return SwitchingVerdict(True, info.certificate)
    return SwitchingVerdict(False, None)


def induced_sign_subgraph(g: SignedGraph, sign: int) -> SignedGraph:
    """Subgraph on the same vertex set keeping only edges of ``sign``."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return SignedGraph(g.n, frozenset(e for e in g.edges if e.sign == sign))

