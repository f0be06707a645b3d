"""Bipartite edge coloring — the scheduling core of offline permutation.

The paper's introduction credits its earlier work ([8], [13]) with a
"complicated graph coloring technique to eliminate bank conflicts in
off-line permutation".  The underlying combinatorics: moving ``w^2``
elements between two ``w``-bank arrays induces a ``w``-regular
bipartite *multigraph* between source banks and destination banks (one
edge per element).  König's edge-coloring theorem says a bipartite
multigraph with maximum degree ``Δ`` is ``Δ``-edge-colorable, so the
``w^2`` moves split into exactly ``w`` rounds in which every source
bank is read at most once and every destination bank written at most
once — i.e. every round is congestion-free on the DMM.

:func:`edge_color_euler` implements the constructive proof: an
even-regular multigraph splits along Eulerian circuits into two
half-degree halves, and an odd degree first peels one perfect matching
found by augmenting paths.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

from repro.util.validation import check_positive_int

__all__ = ["edge_color_euler", "validate_coloring"]


def _perfect_matching(
    remaining: dict[tuple[int, int], list[int]], lefts: list[int]
) -> list[tuple[int, int]]:
    """Perfect matching on the support of the remaining multigraph.

    The remaining graph is ``k``-regular for some ``k >= 1``, so by
    Hall's theorem a perfect matching exists on its support.  Each left
    node in turn grows a tree of alternating paths until it reaches a
    free right node, then flips that path (Kuhn's augmenting paths).
    """
    adjacency: dict[int, list[int]] = {u: [] for u in lefts}
    for u, v in remaining:
        adjacency[u].append(v)
    owner: dict[int, int] = {}  # right node -> its matched left node
    partner: dict[int, int] = {}  # left node -> its matched right node
    for root in lefts:
        parent: dict[int, int] = {}  # right node -> left node that reached it
        frontier = [root]
        free: int | None = None
        while frontier and free is None:
            u = frontier.pop()
            for v in adjacency[u]:
                if v in parent:
                    continue
                parent[v] = u
                if v not in owner:
                    free = v
                    break
                frontier.append(owner[v])
        if free is None:  # pragma: no cover - cannot happen if regular
            raise RuntimeError(f"no perfect matching: left node {root} unmatched")
        right: int | None = free
        while right is not None:  # flip the path back to the root
            left = parent[right]
            right_next = partner.get(left)
            owner[right], partner[left] = left, right
            right = right_next
    return [(u, partner[u]) for u in lefts]


def _euler_split(
    edges: list[tuple[int, int]], indices: list[int]
) -> tuple[list[int], list[int]]:
    """Split an even-regular bipartite multigraph into two halves.

    Finds Eulerian circuits (Hierholzer) of the undirected multigraph
    restricted to ``indices`` and assigns alternate circuit edges to
    the two halves.  Because the graph is bipartite, every circuit has
    even length, so each vertex sends exactly half its edges to each
    side — the classic Euler-split step of fast edge coloring.
    """
    # Adjacency: node -> list of (edge_idx, other_node); nodes are
    # ("L", u) / ("R", v) to keep the sides distinct.
    adjacency: dict[tuple[str, int], list[int]] = {}
    endpoints = {}
    for idx in indices:
        u, v = edges[idx]
        left, right = ("L", u), ("R", v)
        endpoints[idx] = (left, right)
        adjacency.setdefault(left, []).append(idx)
        adjacency.setdefault(right, []).append(idx)

    used = set()
    half_a: list[int] = []
    half_b: list[int] = []
    for start in list(adjacency):
        while adjacency[start]:
            if adjacency[start][-1] in used:
                adjacency[start].pop()
                continue
            # Hierholzer walk from `start`.
            circuit: list[int] = []
            node = start
            while True:
                stack = adjacency[node]
                while stack and stack[-1] in used:
                    stack.pop()
                if not stack:
                    break
                edge = stack.pop()
                used.add(edge)
                circuit.append(edge)
                a, b = endpoints[edge]
                node = b if node == a else a
            for pos, edge in enumerate(circuit):
                (half_a if pos % 2 == 0 else half_b).append(edge)
    return half_a, half_b


def edge_color_euler(
    edges: Sequence[tuple[int, int]], degree: int
) -> list[int]:
    """Color the edges of a ``degree``-regular bipartite multigraph.

    For even degree the multigraph splits into two half-degree halves
    in ``O(E)``; odd degrees peel one perfect matching first.  For the
    power-of-two degrees of GPU routing (``w`` banks) the whole
    coloring costs ``O(E log w)``.

    Parameters
    ----------
    edges:
        ``(left, right)`` endpoint pairs.  The multigraph they form
        must be ``degree``-regular on both sides (every left node and
        every right node appears exactly ``degree`` times) — which is
        automatic for bank-to-bank permutation routing.
    degree:
        The regular degree ``Δ`` (= number of colors / rounds).

    Returns
    -------
    list of int
        ``colors[e] in [0, degree)`` for each edge, such that no two
        edges sharing an endpoint get the same color.

    Raises
    ------
    ValueError
        If the multigraph is not ``degree``-regular.
    """
    check_positive_int(degree, "degree")
    edges = list(edges)
    left_deg = Counter(e[0] for e in edges)
    right_deg = Counter(e[1] for e in edges)
    if any(d != degree for d in left_deg.values()) or any(
        d != degree for d in right_deg.values()
    ):
        raise ValueError(f"multigraph is not {degree}-regular")

    colors = [-1] * len(edges)
    lefts = sorted(left_deg)

    def color_range(indices: list[int], deg: int, base: int) -> None:
        if not indices:
            return
        if deg == 1:
            for idx in indices:
                colors[idx] = base
            return
        if deg % 2 == 1:
            # Peel one perfect matching, then the rest is even-regular.
            remaining: dict[tuple[int, int], list[int]] = {}
            for idx in indices:
                remaining.setdefault(edges[idx], []).append(idx)
            matching = _perfect_matching(remaining, lefts)
            peeled = []
            for u, v in matching:
                idx = remaining[(u, v)].pop()
                peeled.append(idx)
            peeled_set = set(peeled)
            for idx in peeled:
                colors[idx] = base
            rest = [idx for idx in indices if idx not in peeled_set]
            color_range(rest, deg - 1, base + 1)
            return
        half_a, half_b = _euler_split(edges, indices)
        color_range(half_a, deg // 2, base)
        color_range(half_b, deg // 2, base + deg // 2)

    color_range(list(range(len(edges))), degree, 0)
    return colors


def validate_coloring(
    edges: Sequence[tuple[int, int]], colors: Sequence[int]
) -> bool:
    """Check that a coloring is proper: per color, endpoints are unique."""
    if len(edges) != len(colors):
        return False
    seen_left: set[tuple[int, int]] = set()
    seen_right: set[tuple[int, int]] = set()
    for (u, v), c in zip(edges, colors):
        if (c, u) in seen_left or (c, v) in seen_right:
            return False
        seen_left.add((c, u))
        seen_right.add((c, v))
    return True
