"""Digraph analytics for max-plus matrices.

Covers the graph side of the toolkit: strongly connected components,
maximum cycle mean (Karp's dynamic program), the critical digraph with its
components, cyclicities and cyclic classes, and the cyclicity of the
ambient digraph.  Nodes are 0-based throughout.

A square matrix is its own digraph, with edge (i, j) where entry (i, j) is
finite: the cycle-mean, irreducibility and critical routines take it and
walk its ``finite_rows`` in row-major order.  Tarjan's algorithm takes
successor lists, the cyclicity routines a ``(nodes, edges)`` pair.

The critical edges come by one of two routes, and both hand them to one
shared tail that builds the components, cyclic classes and ambient
structure.  ``critical_graph`` is the general route and the referee: the
star of the matrix normalised by its cycle mean, one product and an exact
test of every edge.  ``zero_critical_graph`` is the route for a matrix
whose finite entries are all <= 0 (the caller checks this).  There a
cycle is critical exactly when its mean is 0, that is when every edge on
it is 0, and the critical edges are the zero edges inside the strongly
connected components of the zero-edge subgraph: one Tarjan pass, with no
star, product or cycle mean.  It inserts those edges in the row-major
order the general route uses, so the two give equal sets that also iterate
alike.  It returns None when the matrix has no zero cycle (cycle mean
below 0); the caller then takes the general route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .semiring import MaxPlusMatrix, Number, _star, finite_rows, mp_multiply, rational


def _weighted_successors(a: MaxPlusMatrix) -> list[list[tuple[int, Number]]]:
    if not a.is_square:
        raise ValueError(f"an associated digraph needs a square matrix, got {a.rows}x{a.cols}")
    return finite_rows(a)


def _targets(rows: Sequence[Sequence[tuple[int, Number]]]) -> list[list[int]]:
    return [[v for v, _ in row] for row in rows]


def strongly_connected_components(successors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's algorithm, iterative; components sorted by smallest node.

    ``successors[v]`` lists the heads of the edges leaving node v.
    """
    n = len(successors)
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
            for pos in range(ptr, len(successors[v])):
                w = successors[v][pos]
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


def is_irreducible(a: MaxPlusMatrix) -> bool:
    """True when one strongly connected component spans every node."""
    return len(strongly_connected_components(_targets(_weighted_successors(a)))) == 1


def _nontrivial(component: list[int], edge_set: set[tuple[int, int]]) -> bool:
    return len(component) > 1 or (component[0], component[0]) in edge_set


def max_cycle_mean(a: MaxPlusMatrix) -> Optional[Number]:
    """Largest mean weight over all cycles; None (eps) for an acyclic digraph.

    Karp's dynamic program is run separately inside each strongly connected
    component, and the maximum over components is returned.  Its ratios
    (full - part) / (m - k) are compared by cross-multiplication, and only
    the result is built as a rational.
    """
    rows = _weighted_successors(a)
    best: Optional[tuple[Number, int]] = None
    for comp in strongly_connected_components(_targets(rows)):
        if len(comp) == 1 and a.data[comp[0]][comp[0]] is None:
            continue
        pos = {v: i for i, v in enumerate(comp)}
        m = len(comp)
        local_edges = [(pos[u], pos[v], w) for u in comp for v, w in rows[u] if v in pos]
        # walk_best[k][v]: best weight of a length-k walk from comp[0] to v
        walk_best: list[list[Optional[Number]]] = [[None] * m for _ in range(m + 1)]
        walk_best[0][0] = 0
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
            # worst = (num, den), the least ratio (full - part) / (m - k)
            worst = None
            for k in range(m):
                part = walk_best[k][v]
                if part is None:
                    continue
                num, den = full - part, m - k
                if worst is None or num * worst[1] < worst[0] * den:
                    worst = (num, den)
            if worst is not None and (best is None or worst[0] * best[1] > best[0] * worst[1]):
                best = worst
    return None if best is None else rational(*best)


def cyclicity(nodes: Iterable[int], edges: Sequence[tuple[int, int]]) -> int:
    """Cyclicity of a completely reducible digraph.

    Per strongly connected component this is the gcd of all cycle lengths,
    obtained as the gcd of level(u) + 1 - level(v) over edges (u, v) of a
    BFS levelling; across components the lcm is taken.
    """
    members = set(nodes)
    if not edges:
        raise ValueError("cyclicity is undefined without edges")
    top = max(members)
    successors: list[list[int]] = [[] for _ in range(top + 1)]
    for u, v in edges:
        if not (0 <= u <= top and 0 <= v <= top):
            raise ValueError(f"edge ({u}, {v}) leaves the node range 0..{top}")
        successors[u].append(v)
    comps = [c for c in strongly_connected_components(successors) if set(c) <= members]
    return _components_cyclicity(comps, set(edges))


def _components_cyclicity(components: list[list[int]], edge_set: set[tuple[int, int]]) -> int:
    """lcm of the cyclicities of the components that carry a cycle."""
    cyclic = [comp for comp in components if _nontrivial(comp, edge_set)]
    if not cyclic:
        raise ValueError("cyclicity is undefined: the digraph has no cycles")
    return math.lcm(*(_scc_gcd(comp, edge_set) for comp in cyclic))


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

    lam: Number
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


def critical_graph(a: MaxPlusMatrix, lam: Number) -> CriticalStructure:
    """Critical nodes, edges, components and cyclic classes of a matrix's digraph.

    After normalising all weights by -lam, an edge (i, j) is critical
    exactly when a_ij plus the optimal return weight j -> i is zero, and the
    critical nodes are those of the nontrivial strongly connected components
    of the critical edges.  ``lam`` must be the matrix's own maximum cycle
    mean, so the normalised matrix has cycle mean zero and its star needs
    no convergence check.

    The star of the normalised matrix is kept in the returned structure's
    ``__dict__`` under ``_star`` (not a field: equality and ``repr`` ignore
    it), so that the ensemble build can visualise with it instead of
    starring the same matrix again.
    """
    rows = _weighted_successors(a)
    if lam is None:
        raise ValueError("critical structure needs a finite maximum cycle mean")
    normalized = a.shift(-lam)
    star = _star(normalized)
    plus = mp_multiply(normalized, star).data

    crit_edges = frozenset(
        (u, v)
        for u, row in enumerate(finite_rows(normalized))
        for v, w in row
        if plus[v][u] is not None and w + plus[v][u] == 0
    )
    structure = _structure(rows, lam, crit_edges)
    structure.__dict__["_star"] = star
    return structure


def zero_cycle_edges(a: MaxPlusMatrix) -> frozenset[tuple[int, int]]:
    """Zero edges whose ends share a strongly connected component of the
    zero-edge subgraph, that is the edges of the cycles of zero edges, in
    row-major order; one Tarjan pass."""
    zero = [[v for v, w in row if w == 0] for row in _weighted_successors(a)]
    component_of = [0] * a.rows
    for index, comp in enumerate(strongly_connected_components(zero)):
        for v in comp:
            component_of[v] = index
    return frozenset((u, v) for u, heads in enumerate(zero) for v in heads if component_of[u] == component_of[v])


def zero_critical_graph(a: MaxPlusMatrix) -> Optional[CriticalStructure]:
    """``critical_graph(a, 0)`` for a matrix whose finite entries are all
    <= 0 (the caller's check), read off the cycles of zero edges; None when
    there is none.

    On such a matrix the cycle mean is 0 exactly when some cycle has only
    zero edges, and the general route's edge test holds exactly on the
    edges of such cycles.
    """
    crit_edges = zero_cycle_edges(a)
    if not crit_edges:
        return None
    return _structure(finite_rows(a), 0, crit_edges)


def _structure(
    rows: Sequence[Sequence[tuple[int, Number]]], lam: Number, crit_edges: frozenset[tuple[int, int]]
) -> CriticalStructure:
    """Components, cyclic classes and ambient structure around the critical edges."""
    n = len(rows)
    components = []
    crit_successors: list[list[int]] = [[] for _ in range(n)]
    for u, v in sorted(crit_edges):
        crit_successors[u].append(v)
    for comp in strongly_connected_components(crit_successors):
        if not _nontrivial(comp, crit_edges):
            continue
        nodes = frozenset(comp)
        comp_edges = frozenset((u, v) for u, v in crit_edges if u in nodes and v in nodes)
        class_of = cyclic_classes(comp, sorted(comp_edges))
        # Every cyclic class of a strongly connected digraph is nonempty.
        gamma = max(class_of.values()) + 1
        components.append(CriticalComponent(nodes, comp_edges, gamma, class_of))
    crit_nodes = frozenset(v for c in components for v in c.nodes)

    global_gamma = 1
    for c in components:
        global_gamma = math.lcm(global_gamma, c.cyclicity)

    # One SCC pass gives both the ambient cyclicity and irreducibility.
    full_edges = {(u, v) for u, row in enumerate(rows) for v, _ in row}
    ambient_comps = strongly_connected_components(_targets(rows))
    ambient = _components_cyclicity(ambient_comps, full_edges)
    ambient_classes = None
    if len(ambient_comps) == 1:
        ambient_classes = {v: lvl % ambient for v, lvl in _bfs_levels(list(range(n)), full_edges).items()}
    return CriticalStructure(
        lam=lam,
        critical_nodes=crit_nodes,
        critical_edges=crit_edges,
        components=tuple(components),
        global_cyclicity=global_gamma,
        ambient_cyclicity=ambient,
        ambient_class_of=ambient_classes,
    )
