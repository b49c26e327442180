"""Digraph analytics for max-plus matrices.

Covers the graph side of the toolkit: strongly connected components,
maximum cycle mean (Karp's dynamic program), the critical digraph with its
components, cyclicities and cyclic classes, and the cyclicity of the
ambient digraph.  Nodes are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .semiring import TOL, MaxPlusMatrix, metric_matrix

Edge = tuple[int, int, float]


@dataclass(frozen=True)
class WeightedDigraph:
    """Digraph with one weighted edge per ordered node pair at most."""

    node_count: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        seen = set()
        for u, v, _ in self.edges:
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u}, {v}) leaves the node range 0..{self.node_count - 1}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))

    @classmethod
    def from_matrix(cls, m: MaxPlusMatrix) -> "WeightedDigraph":
        """Edge (i, j) exists exactly where the matrix entry is finite."""
        if not m.is_square:
            raise ValueError("an associated digraph needs a square matrix")
        edges = tuple(
            (i, j, m.data[i][j])
            for i in range(m.rows)
            for j in range(m.cols)
            if m.data[i][j] is not None
        )
        return cls(m.rows, edges)

    def successors(self) -> list[list[tuple[int, float]]]:
        adj: list[list[tuple[int, float]]] = [[] for _ in range(self.node_count)]
        for u, v, w in self.edges:
            adj[u].append((v, w))
        return adj


def strongly_connected_components(g: WeightedDigraph) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components sorted by smallest node."""
    n = g.node_count
    adj = [[v for v, _ in row] for row in g.successors()]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work[-1]
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            for pos in range(ptr, len(adj[v])):
                w = adj[v][pos]
                if index[w] == -1:
                    work[-1] = (v, pos + 1)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    components.sort(key=lambda c: c[0])
    return components


def is_irreducible(g: WeightedDigraph) -> bool:
    """True when one strongly connected component spans every node."""
    comps = strongly_connected_components(g)
    return len(comps) == 1 and len(comps[0]) == g.node_count


def _nontrivial(component: list[int], edge_set: set[tuple[int, int]]) -> bool:
    return len(component) > 1 or (component[0], component[0]) in edge_set


def max_cycle_mean(g: WeightedDigraph) -> Optional[float]:
    """Largest mean weight over all cycles; None (eps) for an acyclic digraph.

    Karp's dynamic program is run separately inside each strongly connected
    component, and the maximum over components is returned.
    """
    edge_set = {(u, v) for u, v, _ in g.edges}
    best: Optional[float] = None
    for comp in strongly_connected_components(g):
        if not _nontrivial(comp, edge_set):
            continue
        pos = {v: i for i, v in enumerate(comp)}
        m = len(comp)
        local_edges = [(pos[u], pos[v], w) for u, v, w in g.edges if u in pos and v in pos]
        # walk_best[k][v]: best weight of a length-k walk from comp[0] to v
        walk_best: list[list[Optional[float]]] = [[None] * m for _ in range(m + 1)]
        walk_best[0][0] = 0.0
        for k in range(1, m + 1):
            prev, cur = walk_best[k - 1], walk_best[k]
            for u, v, w in local_edges:
                base = prev[u]
                if base is None:
                    continue
                cand = base + w
                if cur[v] is None or cand > cur[v]:
                    cur[v] = cand
        for v in range(m):
            full = walk_best[m][v]
            if full is None:
                continue
            worst = None
            for k in range(m):
                part = walk_best[k][v]
                if part is None:
                    continue
                ratio = (full - part) / (m - k)
                if worst is None or ratio < worst:
                    worst = ratio
            if worst is not None and (best is None or worst > best):
                best = worst
    return best


def cyclicity(nodes: Iterable[int], edges: Sequence[tuple[int, int]]) -> int:
    """Cyclicity of a completely reducible digraph.

    Per strongly connected component this is the gcd of all cycle lengths,
    obtained as the gcd of level(u) + 1 - level(v) over edges (u, v) of a
    BFS levelling; across components the lcm is taken.
    """
    node_list = sorted(set(nodes))
    if not edges:
        raise ValueError("cyclicity is undefined without edges")
    g = WeightedDigraph(max(node_list) + 1, tuple((u, v, 0.0) for u, v in dict.fromkeys(edges)))
    edge_set = {(u, v) for u, v in edges}
    result = 1
    found_cycle = False
    for comp in strongly_connected_components(g):
        if not set(comp) <= set(node_list):
            continue
        if not _nontrivial(comp, edge_set):
            continue
        found_cycle = True
        result = math.lcm(result, _scc_gcd(comp, edge_set))
    if not found_cycle:
        raise ValueError("cyclicity is undefined: the digraph has no cycles")
    return result


def _scc_gcd(component: list[int], edge_set: set[tuple[int, int]]) -> int:
    levels = _bfs_levels(component, edge_set)
    g = 0
    for u in component:
        for v in component:
            if (u, v) in edge_set:
                g = math.gcd(g, levels[u] + 1 - levels[v])
    return g


def _bfs_levels(component: list[int], edge_set: set[tuple[int, int]]) -> dict[int, int]:
    members = sorted(set(component))
    anchor = members[0]
    levels = {anchor: 0}
    frontier = [anchor]
    while frontier:
        nxt = []
        for u in frontier:
            for v in members:
                if (u, v) in edge_set and v not in levels:
                    levels[v] = levels[u] + 1
                    nxt.append(v)
        frontier = nxt
    return levels


def cyclic_classes(nodes: Iterable[int], edges: Sequence[tuple[int, int]]) -> dict[int, int]:
    """Class index per node of one strongly connected digraph.

    The smallest node anchors class 0 and class(j) is the BFS walk length
    from the anchor taken modulo the cyclicity; every walk between two fixed
    nodes has the same length modulo the cyclicity, so this is well defined.
    """
    component = sorted(set(nodes))
    gamma = cyclicity(component, edges)
    edge_set = {(u, v) for u, v in edges}
    levels = _bfs_levels(component, edge_set)
    return {v: levels[v] % gamma for v in component}


@dataclass(frozen=True)
class CriticalComponent:
    nodes: frozenset[int]
    edges: frozenset[tuple[int, int]]
    cyclicity: int
    class_of: dict[int, int]

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.cyclicity)]
        for v in sorted(self.nodes):
            out[self.class_of[v]].append(v)
        return out


@dataclass(frozen=True)
class CriticalStructure:
    """Critical digraph of a matrix plus the ambient cyclic structure."""

    lam: float
    critical_nodes: frozenset[int]
    critical_edges: frozenset[tuple[int, int]]
    components: tuple[CriticalComponent, ...]
    global_cyclicity: int
    ambient_cyclicity: int
    ambient_class_of: Optional[dict[int, int]]

    @property
    def component_count(self) -> int:
        return len(self.components)

    def class_reaches(self, i: int, j: int, k: int) -> bool:
        """Whether length-k walks can connect the ambient classes of i and j."""
        if self.ambient_class_of is None:
            raise ValueError("ambient cyclic classes need an irreducible digraph")
        r = self.ambient_cyclicity
        return (self.ambient_class_of[j] - self.ambient_class_of[i] - k) % r == 0

    def to_json(self) -> dict:
        return {
            "lambda": self.lam,
            "critical_nodes": sorted(self.critical_nodes),
            "critical_edges": sorted(self.critical_edges),
            "components": [
                {
                    "nodes": sorted(c.nodes),
                    "edges": sorted(c.edges),
                    "cyclicity": c.cyclicity,
                    "class_of": {str(v): c.class_of[v] for v in sorted(c.nodes)},
                }
                for c in self.components
            ],
            "global_cyclicity": self.global_cyclicity,
            "ambient_cyclicity": self.ambient_cyclicity,
            "ambient_class_of": None
            if self.ambient_class_of is None
            else {str(v): self.ambient_class_of[v] for v in sorted(self.ambient_class_of)},
        }


def critical_graph(g: WeightedDigraph, lam: float, tol: float = TOL) -> CriticalStructure:
    """Critical nodes, edges, components and cyclic classes of a digraph.

    After normalising all weights by -lam, a node is critical exactly when
    the metric matrix has a zero diagonal entry there, and an edge (i, j) is
    critical exactly when a_ij plus the optimal return weight j -> i is zero.
    """
    if lam is None or not math.isfinite(lam):
        raise ValueError("critical structure needs a finite maximum cycle mean")
    n = g.node_count
    grid: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for u, v, w in g.edges:
        grid[u][v] = w - lam
    normalized = MaxPlusMatrix.from_rows(grid)
    plus = metric_matrix(normalized)

    crit_nodes = frozenset(
        i for i in range(n) if plus.data[i][i] is not None and plus.data[i][i] >= -tol
    )
    crit_edges = frozenset(
        (u, v)
        for u in range(n)
        for v in range(n)
        if grid[u][v] is not None
        and plus.data[v][u] is not None
        and grid[u][v] + plus.data[v][u] >= -tol
    )

    components = []
    sub = WeightedDigraph(n, tuple((u, v, 0.0) for u, v in sorted(crit_edges)))
    for comp in strongly_connected_components(sub):
        comp_nodes = [v for v in comp if v in crit_nodes]
        if not comp_nodes or not _nontrivial(comp_nodes, set(crit_edges)):
            continue
        comp_edges = frozenset((u, v) for u, v in crit_edges if u in set(comp_nodes) and v in set(comp_nodes))
        class_of = cyclic_classes(comp_nodes, sorted(comp_edges))
        # Every cyclic class of a strongly connected digraph is nonempty.
        gamma = max(class_of.values()) + 1
        components.append(CriticalComponent(frozenset(comp_nodes), comp_edges, gamma, class_of))

    global_gamma = 1
    for c in components:
        global_gamma = math.lcm(global_gamma, c.cyclicity)

    full_edges = [(u, v) for u, v, _ in g.edges]
    ambient = cyclicity(range(n), full_edges)
    ambient_classes = None
    if is_irreducible(g):
        ambient_classes = {
            v: lvl % ambient for v, lvl in _bfs_levels(list(range(n)), set(full_edges)).items()
        }
    return CriticalStructure(
        lam=lam,
        critical_nodes=crit_nodes,
        critical_edges=crit_edges,
        components=tuple(components),
        global_cyclicity=global_gamma,
        ambient_cyclicity=ambient,
        ambient_class_of=ambient_classes,
    )
