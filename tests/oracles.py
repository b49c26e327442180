"""Independent oracles and random instance builders for the test suite.

Everything here recomputes results by definition-level brute force
(exhaustive walk enumeration, simple-cycle listing, explicit trellis
dynamic programs, set-cover factor rank) without touching the library's
algebraic code paths, so agreement is meaningful evidence.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from mpcsr.digraph import CriticalComponent, CriticalStructure
from mpcsr.ensemble import Ensemble, build_ensemble
from mpcsr.semiring import MaxPlusMatrix, Scalar

E = None
Grid = Sequence[Sequence[Optional[float]]]


# -- exhaustive walk enumeration ------------------------------------------


def best_walk_weight(grids: Sequence[Grid], i: int, j: int) -> Optional[float]:
    """Max weight over every node sequence i -> j using grids per step."""
    n = len(grids[0])
    best: Optional[float] = None

    def rec(pos: int, node: int, acc: float):
        nonlocal best
        if pos == len(grids):
            if node == j and (best is None or acc > best):
                best = acc
            return
        row = grids[pos][node]
        for nxt in range(n):
            w = row[nxt]
            if w is not None:
                rec(pos + 1, nxt, acc + w)

    rec(0, i, 0)
    return best


def best_walk_matrix(grids: Sequence[Grid]) -> list[list[Optional[float]]]:
    n = len(grids[0])
    return [[best_walk_weight(grids, i, j) for j in range(n)] for i in range(n)]


def dp_walk_matrix(grids: Sequence[Grid]) -> list[list[Optional[float]]]:
    """Stage-by-stage vector relaxation; for long products where enumeration
    is out of reach.  Written against the walk definition, not reusing the
    library's matrix product."""
    n = len(grids[0])
    out = []
    for start in range(n):
        vec: list[Optional[float]] = [0 if x == start else None for x in range(n)]
        for grid in grids:
            nxt: list[Optional[float]] = [None] * n
            for x in range(n):
                base = vec[x]
                if base is None:
                    continue
                for y in range(n):
                    w = grid[x][y]
                    if w is None:
                        continue
                    cand = base + w
                    if nxt[y] is None or cand > nxt[y]:
                        nxt[y] = cand
            vec = nxt
        out.append(vec)
    return out


# -- dense referees for the sparse kernels ---------------------------------


def dense_multiply(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    """Tropical product by the dense i-j-k loop, first maximum in k kept."""
    bdata = b.data
    out = []
    for i in range(a.rows):
        arow = a.data[i]
        orow = []
        for j in range(b.cols):
            best = None
            for k in range(a.cols):
                x = arow[k]
                if x is None:
                    continue
                y = bdata[k][j]
                if y is None:
                    continue
                s = x + y
                if best is None or s > best:
                    best = s
            orow.append(best)
        out.append(tuple(orow))
    return MaxPlusMatrix(a.rows, b.cols, tuple(out))


def power_series_star(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """I (+) a (+) ... (+) a^(n-1) by repeated dense products.

    On ties the earlier (shorter) term is kept.  No convergence check: the
    caller passes matrices whose maximum cycle mean is nonpositive.
    """
    n = a.rows
    result = MaxPlusMatrix.identity(n)
    power = result
    for _ in range(n - 1):
        power = dense_multiply(power, a)
        result = MaxPlusMatrix(
            n,
            n,
            tuple(
                tuple(p if r is None or (p is not None and p > r) else r for r, p in zip(rrow, prow))
                for rrow, prow in zip(result.data, power.data)
            ),
        )
    return result


# -- CSR terms from powers of the structure matrix ---------------------------


def structure(n: int, edges) -> MaxPlusMatrix:
    """0 on the given edges, eps elsewhere."""
    grid: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for u, v in edges:
        grid[u][v] = 0
    return MaxPlusMatrix.from_rows(grid)


def dense_power(a: MaxPlusMatrix, k: int) -> MaxPlusMatrix:
    out = MaxPlusMatrix.identity(a.rows)
    for _ in range(k):
        out = dense_multiply(out, a)
    return out


def power_threshold(s: MaxPlusMatrix, gamma: int) -> int:
    """Smallest T >= 1 with s^T equal to s^(T+gamma), searched up to the
    Wielandt bound plus gamma."""
    cap = (s.rows - 1) ** 2 + 1 + gamma
    powers = [MaxPlusMatrix.identity(s.rows), s]
    for t in range(1, cap + 1):
        while len(powers) <= t + gamma:
            powers.append(dense_multiply(powers[-1], s))
        if powers[t].data == powers[t + gamma].data:
            return t
    raise ValueError(f"powers did not become periodic with period {gamma} within {cap} steps")


@dataclass(frozen=True)
class SPowerTerms:
    """CSR terms C = G (*) S^v and R = S^v (*) G built from tropical powers
    of the structure matrix, once globally and once per critical component."""

    k: int
    product: MaxPlusMatrix
    critical: CriticalStructure
    gamma: int
    gamma_nu: tuple[int, ...]
    threshold: int
    thresholds_nu: tuple[int, ...]
    t_exponent: int
    v_exponent: int
    s_global: MaxPlusMatrix
    s_components: tuple[MaxPlusMatrix, ...]
    c_global: MaxPlusMatrix
    r_global: MaxPlusMatrix
    c_components: tuple[MaxPlusMatrix, ...]
    r_components: tuple[MaxPlusMatrix, ...]

    @property
    def components(self) -> tuple[CriticalComponent, ...]:
        return self.critical.components


def s_power_csr_terms(ensemble: Ensemble, word) -> SPowerTerms:
    """C, S and R from tropical powers of S, globally and per component.

    The global threshold is searched on the global S, not derived from the
    component thresholds."""
    from mpcsr.trellis import gamma_product

    product = gamma_product(ensemble, word)
    crit = ensemble.critical
    n = ensemble.size
    k = len(word)
    gamma = crit.global_cyclicity
    s_global = structure(n, sorted(crit.critical_edges))
    threshold = power_threshold(s_global, gamma)
    t = max(1, -(-threshold // gamma))
    v = (t + 1) * gamma - (k % gamma)
    s_power_v = dense_power(s_global, v)
    s_components = [structure(n, sorted(comp.edges)) for comp in crit.components]
    s_components_v = [dense_power(s_nu, v) for s_nu in s_components]
    return SPowerTerms(
        k=k,
        product=product,
        critical=crit,
        gamma=gamma,
        gamma_nu=tuple(comp.cyclicity for comp in crit.components),
        threshold=threshold,
        thresholds_nu=tuple(
            power_threshold(s_nu, comp.cyclicity)
            for s_nu, comp in zip(s_components, crit.components)
        ),
        t_exponent=t,
        v_exponent=v,
        s_global=s_global,
        s_components=tuple(s_components),
        c_global=dense_multiply(product, s_power_v),
        r_global=dense_multiply(s_power_v, product),
        c_components=tuple(dense_multiply(product, s) for s in s_components_v),
        r_components=tuple(dense_multiply(s, product) for s in s_components_v),
    )


def s_power_csr_product(terms: SPowerTerms) -> MaxPlusMatrix:
    """C (*) S^(k mod gamma) (*) R on the global terms."""
    s_pow = dense_power(terms.s_global, terms.k % terms.gamma)
    return dense_multiply(dense_multiply(terms.c_global, s_pow), terms.r_global)


def s_power_direct_form(terms: SPowerTerms) -> MaxPlusMatrix:
    """G (*) S^v (*) G."""
    return dense_multiply(
        dense_multiply(terms.product, dense_power(terms.s_global, terms.v_exponent)), terms.product
    )


def s_power_rank_factors(terms: SPowerTerms):
    """(c_prime, r_prime, representatives): the smallest node of every class
    keeps its column of C_nu and its row of S_nu^(k mod gamma_nu) (*) R_nu."""
    n = terms.product.rows
    c_grid: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    r_grid: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    reps_all = []
    for comp, c_nu, s_nu, r_nu in zip(
        terms.components, terms.c_components, terms.s_components, terms.r_components
    ):
        sr_nu = dense_multiply(dense_power(s_nu, terms.k % comp.cyclicity), r_nu)
        reps = tuple(min(members) for members in comp.classes())
        reps_all.append(reps)
        for rep in reps:
            for i in range(n):
                c_grid[i][rep] = c_nu.data[i][rep]
            r_grid[rep] = list(sr_nu.data[rep])
    return MaxPlusMatrix.from_rows(c_grid), MaxPlusMatrix.from_rows(r_grid), tuple(reps_all)


def s_power_projections(terms: SPowerTerms):
    """(component columns ok, component rows ok, global columns ok, global
    rows ok): the CSR product against C (*) S^m at critical columns and
    against S^m (*) R at critical rows, per component and globally."""

    def agree(full, cs, sr, nodes):
        cols = all(full.data[i][j] == cs.data[i][j] for j in nodes for i in range(full.rows))
        return cols, all(full.data[i] == sr.data[i] for i in nodes)

    per_component = []
    for comp, c_nu, s_nu, r_nu in zip(
        terms.components, terms.c_components, terms.s_components, terms.r_components
    ):
        s_m = dense_power(s_nu, terms.k % comp.cyclicity)
        cs = dense_multiply(c_nu, s_m)
        sr = dense_multiply(s_m, r_nu)
        per_component.append(agree(dense_multiply(cs, r_nu), cs, sr, sorted(comp.nodes)))
    s_m = dense_power(terms.s_global, terms.k % terms.gamma)
    cs = dense_multiply(terms.c_global, s_m)
    sr = dense_multiply(s_m, terms.r_global)
    crit_nodes = sorted(terms.critical.critical_nodes)
    return (
        tuple(c for c, _ in per_component),
        tuple(r for _, r in per_component),
        *agree(dense_multiply(cs, terms.r_global), cs, sr, crit_nodes),
    )


# -- full weak-bound scan ------------------------------------------------------


def full_scan_weak_csr_bound(ensemble: Ensemble, k_max: int):
    """The weak threshold from every length 1..k_max, with no early stop.

    Steps u = a_inf^k through the whole window and evaluates the condition
    at each length, so it never relies on the powers becoming periodic.
    Each threshold is the exact rational (u^k_ij - gamma_ij) / lambda_star +
    slack, maximised over the pairs: at the least u^k_ij - gamma_ij, as
    lambda_star < 0.  ``threshold_at_k`` is that numerator's float in the
    library's display convention.  ``period`` is left at its default.
    """
    from mpcsr.bounds import AssumptionError, WeakBoundResult, _display
    from mpcsr.ensemble import path_weights
    from mpcsr.semiring import finite_rows, row_product

    if k_max < 1:
        raise ValueError(f"k_max must be positive, got {k_max}")
    lam = ensemble.lambda_star
    if lam is not None and lam >= 0:
        raise AssumptionError(
            f"noncritical cycle mean {lam} is nonnegative; no upper-bound threshold exists"
        )
    pw = path_weights(ensemble)
    n = ensemble.size
    slack = n - len(ensemble.critical_nodes)
    avoid_rows = finite_rows(pw.gamma_avoid)
    finite_pairs = sum(len(row) for row in avoid_rows)
    if not finite_pairs:
        return WeakBoundResult(
            k=1,
            first_k=1,
            certified_up_to=k_max,
            threshold_at_k=None,
            lambda_star=lam,
            slack=slack,
            finite_pairs=0,
            diagnostics=("every pair of nodes must pass through the critical set",),
        )
    thresholds = []
    displayed = []
    inf_rows = finite_rows(ensemble.a_inf)
    u = ensemble.a_inf.data
    for _ in range(k_max):
        nums = [urow[j] - g for urow, avoid_row in zip(u, avoid_rows) for j, g in avoid_row if urow[j] is not None]
        if not nums:
            thresholds.append(None)
            displayed.append(None)
        else:
            thresholds.append(slack if lam is None else Fraction(min(nums)) / lam + slack)
            displayed.append(_display(lam, slack)(min(nums)))
        u = [row_product(row, inf_rows, n) for row in u]
    ok = [t is None or k > t for k, t in enumerate(thresholds, start=1)]
    first_k = next((k for k, good in enumerate(ok, start=1) if good), None)
    if not ok[-1]:
        return WeakBoundResult(
            k=None,
            first_k=first_k,
            certified_up_to=k_max,
            threshold_at_k=None,
            lambda_star=lam,
            slack=slack,
            finite_pairs=finite_pairs,
            diagnostics=(f"the condition still fails at length {k_max}; raise k_max",),
        )
    stable = k_max
    while stable > 1 and ok[stable - 2]:
        stable -= 1
    return WeakBoundResult(
        k=stable,
        first_k=first_k,
        certified_up_to=k_max,
        threshold_at_k=displayed[stable - 1],
        lambda_star=lam,
        slack=slack,
        finite_pairs=finite_pairs,
        diagnostics=(),
    )


# -- star-route ensemble build ------------------------------------------------


def star_route_build_ensemble(generators: Sequence[MaxPlusMatrix]) -> Ensemble:
    """``build_ensemble`` with every critical structure taken the general way.

    Each matrix gets Karp's cycle mean and ``critical_graph``: the supremum
    before and after visualisation and every visualised generator.  The
    visualisation stars the normalised supremum on its own.  This is the
    build before the zero-cycle route and the star reuse, kept as their
    referee.
    """
    from mpcsr.digraph import critical_graph, max_cycle_mean
    from mpcsr.ensemble import AssumptionReport, EnsembleError, _is_visualised, _profile, _top
    from mpcsr.semiring import _star, entrywise_inf, entrywise_sup

    if not generators:
        raise EnsembleError("an ensemble needs at least one generator")
    n = generators[0].rows
    for g in generators:
        if not g.is_square:
            raise EnsembleError(f"generators must be square, got {g.rows}x{g.cols}")
        if g.rows != n:
            raise EnsembleError(f"generators must share one size, got {n} and {g.rows}")
    normalized = []
    for idx, g in enumerate(generators):
        lam = max_cycle_mean(g)
        if lam is None:
            raise EnsembleError(f"generator {idx} has no cycles; its cycle mean is eps")
        normalized.append(g.shift(-lam))
    a_sup0 = entrywise_sup(normalized)
    lam_sup0 = max_cycle_mean(a_sup0)
    crit0 = critical_graph(a_sup0, lam_sup0)
    x = (0,) * n
    if lam_sup0 == 0 and not _is_visualised(normalized + [a_sup0], crit0):
        star = _star(a_sup0)
        scaled = []
        for i in range(n):
            best = _top(star.data[i][c] for c in sorted(crit0.critical_nodes))
            if best is None:
                raise EnsembleError(f"node {i} cannot reach the critical set; no finite visualisation exists")
            scaled.append(best)
        x = tuple(scaled)
        normalized = [m.diagonal_similarity(x) for m in normalized]
    mats = tuple(normalized)
    a_sup = entrywise_sup(mats)
    a_inf = entrywise_inf(mats)
    lam_sup = max_cycle_mean(a_sup)
    crit = critical_graph(a_sup, lam_sup)
    noncritical = [i for i in range(n) if i not in crit.critical_nodes]
    b_sup = a_sup.mask(noncritical) if noncritical else MaxPlusMatrix.epsilon(n, n)
    lambda_star = max_cycle_mean(b_sup)

    notes: list[str] = []
    crits = [critical_graph(m, max_cycle_mean(m)) for m in mats]
    irreducible = all(c.ambient_class_of is not None for c in crits)
    if not irreducible:
        notes.append("some generator is not irreducible")
    sup_support = a_sup.support()
    same_support = all(m.support() == sup_support for m in mats)
    same_critical = True
    for idx, c in enumerate(crits):
        if c.critical_edges != crit.critical_edges or c.critical_nodes != crit.critical_nodes:
            same_critical = False
            notes.append(f"generator {idx} has a different critical digraph")
    if not same_support:
        notes.append("generators do not share one finiteness pattern")
    inf_equiv = a_inf.support() == sup_support
    if not inf_equiv:
        notes.append("the entrywise infimum loses edges of the common digraph")
    d1 = lam_sup == 0
    if not d1:
        notes.append(f"supremum matrix has cycle mean {lam_sup}, not zero")
    d2 = _is_visualised(list(mats) + [a_sup], crit)
    if not d2:
        notes.append("the family is not visualised: critical entries must be zero, others nonpositive")
    report = AssumptionReport(
        irreducible=irreducible,
        strongly_equivalent=same_support and same_critical,
        inf_equivalent=inf_equiv,
        sup_cycle_mean_zero=d1,
        visualised=d2,
        profile=_profile(crit),
        diagnostics=tuple(notes),
    )
    return Ensemble(
        generators=tuple(generators),
        normalized=mats,
        visualisation_vector=x,
        a_sup=a_sup,
        a_inf=a_inf,
        b_sup=b_sup,
        lambda_star=lambda_star,
        critical=crit,
        assumption_report=report,
    )


def bitwise(value):
    """``value`` with every float as its hex string, every Fraction as its
    numerator and denominator, and every set and dict in its iteration
    order, so that two results compare equal only when they hold values of
    the same types, signs of zero included, and iterate alike."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Fraction):
        return ("Fraction", value.numerator, value.denominator)
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(bitwise(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, dict):
        return ("dict",) + tuple((bitwise(k), bitwise(v)) for k, v in value.items())
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(bitwise(v) for v in value)
    return tuple(bitwise(v) for v in value)


# -- cycles ----------------------------------------------------------------


def edges_of(m: MaxPlusMatrix) -> list[tuple[int, int, float]]:
    """Weighted edges (i, j, m_ij) of a matrix's digraph, in row-major order."""
    return [(i, j, v) for i, row in enumerate(m.data) for j, v in enumerate(row) if v is not None]


def simple_cycle_means(n: int, edges: Sequence[tuple[int, int, float]]) -> list[float]:
    """Mean weights of all simple cycles, each listed once."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    means: list[float] = []

    def dfs(start: int, node: int, visited: set[int], weight: float, length: int):
        for nxt, w in adj[node]:
            if nxt == start:
                means.append(Fraction(weight + w) / (length + 1))
            elif nxt > start and nxt not in visited:
                visited.add(nxt)
                dfs(start, nxt, visited, weight + w, length + 1)
                visited.remove(nxt)

    for s in range(n):
        dfs(s, s, {s}, 0, 0)
    return means


def nodes_on_max_mean_cycles(n: int, edges: Sequence[tuple[int, int, float]]) -> set[int]:
    """All nodes lying on some cycle whose mean attains the maximum."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for u, v, w in edges:
        adj[u].append((v, w))
    cycles: list[tuple[list[int], float]] = []

    def dfs(start: int, node: int, visited: list[int], weight: float):
        for nxt, w in adj[node]:
            if nxt == start:
                cycles.append((visited[:], Fraction(weight + w) / len(visited)))
            elif nxt > start and nxt not in visited:
                visited.append(nxt)
                dfs(start, nxt, visited, weight + w)
                visited.pop()

    for s in range(n):
        dfs(s, s, [s], 0)
    if not cycles:
        return set()
    top = max(m for _, m in cycles)
    out: set[int] = set()
    for nodes, m in cycles:
        if m == top:
            out.update(nodes)
    return out


# -- first-passage enumeration ---------------------------------------------


def enumerate_first_passage(
    ensemble: Ensemble, letters: Sequence[int]
) -> tuple[list[Optional[float]], list[Optional[float]]]:
    """Brute-force first-passage weights (initial and final) on the trellis."""
    n = ensemble.size
    crit = ensemble.critical_nodes
    grids = [ensemble.normalized[l - 1].data for l in letters]
    k = len(letters)

    w_star: list[Optional[float]] = [0 if i in crit else None for i in range(n)]
    for i in range(n):
        if i in crit:
            continue

        def rec(stage: int, node: int, acc: float, i=i):
            if stage == k:
                return
            for nxt in range(n):
                w = grids[stage][node][nxt]
                if w is None:
                    continue
                if nxt in crit:
                    if w_star[i] is None or acc + w > w_star[i]:
                        w_star[i] = acc + w
                else:
                    rec(stage + 1, nxt, acc + w)

        rec(0, i, 0)

    v_star: list[Optional[float]] = [0 if j in crit else None for j in range(n)]
    for j in range(n):
        if j in crit:
            continue

        def rec_back(stage: int, node: int, acc: float, j=j):
            # walking backwards: stage is the trellis layer of `node`
            if stage == 0:
                return
            for prev in range(n):
                w = grids[stage - 1][prev][node]
                if w is None:
                    continue
                if prev in crit:
                    if v_star[j] is None or w + acc > v_star[j]:
                        v_star[j] = w + acc
                else:
                    rec_back(stage - 1, prev, w + acc)

        rec_back(k, j, 0)
    return w_star, v_star


# -- mirrored first-passage DP ---------------------------------------------


def mirrored_first_passage_data(
    ensemble: Ensemble, word: Word
) -> tuple[tuple[Scalar, ...], tuple[Optional[int], ...], tuple[Scalar, ...], tuple[Optional[int], ...]]:
    """First-passage weights and lengths by the dense mirrored DP.

    A forward half computes w* and a backward half v*, each a triple loop
    over the noncritical nodes.  Returns (w_star, w_lengths, v_star,
    v_lengths); lengths are None where the critical set is unreachable
    within the word.

    The DP runs on integers: every generator entry is multiplied by the
    least common multiple of the entry denominators, and w* and v* are
    divided back by it.  Max-plus is positively homogeneous, so the optimal
    walks, their lengths and their ties are those of the unscaled data.
    """
    word.validate(ensemble)
    n = ensemble.size
    k = len(word)
    crit = ensemble.critical_nodes
    noncrit = [i for i in range(n) if i not in crit]
    allowed = [i not in crit for i in range(n)]
    entries = [v for g in ensemble.normalized for row in g.data for v in row if v is not None]
    scale = math.lcm(*(v.denominator for v in entries))
    grids = [
        [[None if v is None else v.numerator * (scale // v.denominator) for v in row] for row in g.data]
        for g in ensemble.normalized
    ]

    w_star: list[Scalar] = [0 if i in crit else None for i in range(n)]
    w_len: list[Optional[int]] = [0 if i in crit else None for i in range(n)]
    # reach[i][x]: best walk weight i -> x through noncritical nodes only
    reach: list[list[Scalar]] = [
        [0 if (i == x and allowed[i]) else None for x in range(n)] for i in range(n)
    ]
    crit_sorted = sorted(crit)
    for step, letter in enumerate(word.letters, start=1):
        a = grids[letter - 1]
        for i in noncrit:
            row = reach[i]
            for x in noncrit:
                base = row[x]
                if base is None:
                    continue
                ax = a[x]
                for c in crit_sorted:
                    w = ax[c]
                    if w is None:
                        continue
                    cand = base + w
                    if w_star[i] is None or cand > w_star[i]:
                        w_star[i] = cand
                        w_len[i] = step
        if step < k:
            reach = _advance(reach, a, noncrit, n)

    v_star: list[Scalar] = [0 if j in crit else None for j in range(n)]
    v_len: list[Optional[int]] = [0 if j in crit else None for j in range(n)]
    # back[y][j]: best walk weight y -> j through noncritical nodes only
    back: list[list[Scalar]] = [
        [0 if (y == j and allowed[y]) else None for j in range(n)] for y in range(n)
    ]
    for offset, letter in enumerate(reversed(word.letters), start=1):
        a = grids[letter - 1]
        for j in noncrit:
            for c in crit_sorted:
                ac = a[c]
                for y in noncrit:
                    w = ac[y]
                    if w is None:
                        continue
                    base = back[y][j]
                    if base is None:
                        continue
                    cand = w + base
                    if v_star[j] is None or cand > v_star[j]:
                        v_star[j] = cand
                        v_len[j] = offset
        if offset < k:
            back = _advance_back(back, a, noncrit, n)

    def unscale(values):
        if scale == 1:
            return tuple(values)
        return tuple(None if x is None else Fraction(x, scale) for x in values)

    return unscale(w_star), tuple(w_len), unscale(v_star), tuple(v_len)


def _advance(reach: list[list[Scalar]], a, noncrit: list[int], n: int) -> list[list[Scalar]]:
    out: list[list[Scalar]] = [[None] * n for _ in range(n)]
    for i in noncrit:
        row = reach[i]
        orow = out[i]
        for x in noncrit:
            base = row[x]
            if base is None:
                continue
            ax = a[x]
            for y in noncrit:
                w = ax[y]
                if w is None:
                    continue
                cand = base + w
                if orow[y] is None or cand > orow[y]:
                    orow[y] = cand
    return out


def _advance_back(back: list[list[Scalar]], a, noncrit: list[int], n: int) -> list[list[Scalar]]:
    out: list[list[Scalar]] = [[None] * n for _ in range(n)]
    for x in noncrit:
        ax = a[x]
        orow = out[x]
        for y in noncrit:
            w = ax[y]
            if w is None:
                continue
            row = back[y]
            for j in noncrit:
                base = row[j]
                if base is None:
                    continue
                cand = w + base
                if orow[j] is None or cand > orow[j]:
                    orow[j] = cand
    return out


def best_critical_touching_walk(
    ensemble: Ensemble, letters: Sequence[int], i: int, j: int
) -> Optional[float]:
    """Best weight of a full trellis walk i -> j visiting a critical node."""
    n = ensemble.size
    crit = ensemble.critical_nodes
    cur: dict[tuple[int, bool], float] = {(i, i in crit): 0}
    for letter in letters:
        grid = ensemble.normalized[letter - 1].data
        nxt: dict[tuple[int, bool], float] = {}
        for (node, touched), acc in cur.items():
            row = grid[node]
            for y in range(n):
                w = row[y]
                if w is None:
                    continue
                key = (y, touched or y in crit)
                cand = acc + w
                if key not in nxt or cand > nxt[key]:
                    nxt[key] = cand
        cur = nxt
    return cur.get((j, True))


# -- symmetric trellis ------------------------------------------------------


def symmetric_trellis_matrix(
    ensemble: Ensemble, letters: Sequence[int], middle: int
) -> list[list[Optional[float]]]:
    """Optimal full-walk weights on the doubled trellis with a critical block.

    Stages: the word's grids, then ``middle`` stages restricted to critical
    edges at weight zero, then the word's grids again.
    """
    n = ensemble.size
    s_grid: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
    for u, v in ensemble.critical.critical_edges:
        s_grid[u][v] = 0
    word_grids = [ensemble.normalized[l - 1].data for l in letters]
    grids = word_grids + [s_grid] * middle + word_grids
    return dp_walk_matrix(grids)


# -- tropical factor rank ----------------------------------------------------


def tropical_factor_rank(grid: Grid, max_rank: int = 4) -> Optional[int]:
    """Exact factor rank by set cover over rank-one-realisable position sets.

    A position set is realisable when potentials u (rows) and v (columns)
    exist with u_i + v_j equal to the entry on the set, below it on every
    other finite entry, and eps-compatible elsewhere.  The rank is the least
    number of realisable sets covering all finite positions.  Exponential in
    the number of finite entries; intended for matrices up to 3x3.
    """
    n = len(grid)
    m = len(grid[0])
    positions = [(i, j) for i in range(n) for j in range(m) if grid[i][j] is not None]
    if not positions:
        return 0
    if len(positions) > 12:
        raise ValueError("factor-rank oracle is limited to 12 finite entries")
    full = (1 << len(positions)) - 1

    realisable = []
    for mask in range(1, full + 1):
        subset = [positions[b] for b in range(len(positions)) if mask >> b & 1]
        if _realisable(subset, grid, n, m):
            realisable.append(_cover_bits(subset, positions))

    best: list[Optional[int]] = [None] * (full + 1)
    best[0] = 0
    for count in range(1, max_rank + 1):
        changed = False
        prev = [b for b in range(full + 1) if best[b] is not None and best[b] == count - 1]
        for state in prev:
            for bits in realisable:
                nxt = state | bits
                if best[nxt] is None:
                    best[nxt] = count
                    changed = True
        if best[full] is not None:
            return best[full]
        if not changed:
            break
    return None


def _cover_bits(subset, positions) -> int:
    index = {p: b for b, p in enumerate(positions)}
    bits = 0
    for p in subset:
        bits |= 1 << index[p]
    return bits


def _realisable(subset, grid, n, m) -> bool:
    # Propagate potentials over the bipartite equality graph of the subset.
    row_pot: dict[int, float] = {}
    col_pot: dict[int, float] = {}
    row_comp: dict[int, int] = {}
    col_comp: dict[int, int] = {}
    comp = 0
    adj_rows: dict[int, list[tuple[int, float]]] = {}
    adj_cols: dict[int, list[tuple[int, float]]] = {}
    for i, j in subset:
        adj_rows.setdefault(i, []).append((j, grid[i][j]))
        adj_cols.setdefault(j, []).append((i, grid[i][j]))
    for i0 in sorted(adj_rows):
        if i0 in row_pot:
            continue
        row_pot[i0] = 0
        row_comp[i0] = comp
        frontier = [("r", i0)]
        while frontier:
            kind, node = frontier.pop()
            if kind == "r":
                for j, val in adj_rows.get(node, []):
                    want = val - row_pot[node]
                    if j in col_pot:
                        if col_pot[j] != want:
                            return False
                    else:
                        col_pot[j] = want
                        col_comp[j] = comp
                        frontier.append(("c", j))
            else:
                for i, val in adj_cols.get(node, []):
                    want = val - col_pot[node]
                    if i in row_pot:
                        if row_pot[i] != want:
                            return False
                    else:
                        row_pot[i] = want
                        row_comp[i] = comp
                        frontier.append(("r", i))
        comp += 1

    # Cross constraints: shifts s_c per component, s_a - s_b <= bound.
    diff_edges: list[tuple[int, int, float]] = []
    for i in range(n):
        for j in range(m):
            touched = i in row_pot and j in col_pot
            if grid[i][j] is None:
                if touched:
                    return False
                continue
            if not touched:
                continue
            slackv = grid[i][j] - row_pot[i] - col_pot[j]
            a, b = row_comp[i], col_comp[j]
            if a == b:
                if slackv < 0:
                    return False
            else:
                diff_edges.append((b, a, slackv))  # s_a - s_b <= slackv
    dist = [0] * comp
    for _ in range(comp):
        changed = False
        for b, a, c in diff_edges:
            if dist[b] + c < dist[a]:
                dist[a] = dist[b] + c
                changed = True
        if not changed:
            return True
    return not changed


# -- benchmark modules -------------------------------------------------------


def bench_module(name: str):
    """Load ``bench/<name>.py`` by path; the benchmark is not a package."""
    path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- random instances --------------------------------------------------------


def random_matrix(
    rng: random.Random, n: int, density: float = 0.5, lo: int = -20, hi: int = 0
) -> MaxPlusMatrix:
    rows = [
        [float(rng.randint(lo, hi)) if rng.random() < density else None for _ in range(n)]
        for _ in range(n)
    ]
    if all(v is None for row in rows for v in row):
        rows[rng.randrange(n)][rng.randrange(n)] = float(rng.randint(lo, hi))
    return MaxPlusMatrix.from_rows(rows)


def _critical_patterns(rng: random.Random):
    gamma = rng.choice((1, 1, 2, 2, 3))
    if gamma == 2 and rng.random() < 0.3:
        # four-cycle with both chords: one component, cyclicity 2
        edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 3), (2, 1)]
        return 2, 4, edges
    if gamma == 1:
        return 1, 1, [(0, 0)]
    return gamma, gamma, [(i, (i + 1) % gamma) for i in range(gamma)]


def random_p0_ensemble(
    rng: random.Random,
    n_max: int = 6,
    lo: int = -20,
    require_lambda_star: bool = False,
    max_ambient_k: Optional[int] = None,
):
    """Random visualised ensemble with profile P0 (rejection sampling)."""
    from mpcsr.bounds import ambient_csr_bound

    while True:
        gamma, q, crit_edges = _critical_patterns(rng)
        if q >= n_max:
            continue
        n = rng.randint(q + 1, n_max)
        label = {i: i % gamma for i in range(q)}
        for v in range(q, n):
            label[v] = rng.randrange(gamma)
        support = set(crit_edges)
        ok = True
        for v in range(q, n):
            ins = [u for u in range(n) if u != v and (label[v] - label[u]) % gamma == 1 % gamma]
            outs = [u for u in range(n) if u != v and (label[u] - label[v]) % gamma == 1 % gamma]
            if not ins or not outs:
                ok = False
                break
            support.add((rng.choice(ins), v))
            support.add((v, rng.choice(outs)))
        if not ok:
            continue
        for _ in range(rng.randrange(2 * n)):
            u = rng.randrange(n)
            cand = [x for x in range(n) if (label[x] - label[u]) % gamma == 1 % gamma and (u, x) not in crit_edges]
            if cand:
                support.add((u, rng.choice(cand)))
        gens = []
        for _ in range(rng.randint(2, 4)):
            rows: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
            for (u, v) in support:
                rows[u][v] = 0 if (u, v) in crit_edges else float(rng.randint(lo, -1))
            gens.append(MaxPlusMatrix.from_rows(rows))
        try:
            ens = build_ensemble(gens)
        except Exception:
            continue
        rep = ens.assumption_report
        if rep.profile != "P0" or not rep.all_core():
            continue
        if require_lambda_star and ens.lambda_star is None:
            continue
        if max_ambient_k is not None and ambient_csr_bound(ens).ambient_k > max_ambient_k:
            continue
        return ens


def random_visualised_ensemble(
    rng: random.Random,
    n_max: int = 6,
    lo: int = -20,
    require_lambda_star_negative: bool = False,
):
    """Random visualised ensemble of any profile (shared support, zero cycle)."""
    while True:
        n = rng.randint(2, n_max)
        cycle_len = rng.randint(1, n)
        cycle_nodes = rng.sample(range(n), cycle_len)
        crit_edges = {
            (cycle_nodes[i], cycle_nodes[(i + 1) % cycle_len]) for i in range(cycle_len)
        }
        support = set(crit_edges)
        for u in range(n):
            for v in range(n):
                if rng.random() < 0.35:
                    support.add((u, v))
        gens = []
        for _ in range(rng.randint(2, 3)):
            rows: list[list[Optional[float]]] = [[None] * n for _ in range(n)]
            for (u, v) in support:
                rows[u][v] = 0 if (u, v) in crit_edges else float(rng.randint(lo, -1))
            gens.append(MaxPlusMatrix.from_rows(rows))
        try:
            ens = build_ensemble(gens)
        except Exception:
            continue
        rep = ens.assumption_report
        if not rep.all_core():
            continue
        if require_lambda_star_negative and (ens.lambda_star is None or ens.lambda_star >= 0):
            continue
        return ens


def random_word(rng: random.Random, ensemble: Ensemble, k: int):
    from mpcsr.trellis import Word

    return Word(tuple(rng.randint(1, ensemble.generator_count()) for _ in range(k)))
