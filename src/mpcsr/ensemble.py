"""Generator ensembles: validation, normalisation and common visualisation.

An ensemble is a finite family of square max-plus matrices ("generators")
from which inhomogeneous products are drawn.  Building one normalises every
generator to maximum cycle mean zero, scales the whole family by one common
subeigenvector so that critical entries become exactly zero and everything
else nonpositive, and precomputes the shared objects every later analysis
needs: the entrywise supremum and infimum, the critical structure, the
supremum with critical rows and columns removed, and its cycle mean.

The working assumptions are reported, not enforced: construction only
aborts on structural impossibilities (shape mismatch, a generator without
cycles, or a node that cannot reach the critical set while a rescaling is
required).

The critical structure of the normalised supremum, which the visualisation
reads, comes from ``critical_graph``; when its cycle mean is 0 the star
that ``critical_graph`` computed is the star of the supremum itself, and
the visualisation reuses it.  When every finite visualised entry is <= 0,
the critical digraphs of the supremum and of each generator are read off
their cycles of zero edges (``zero_critical_graph``), with no star and no
cycle mean.  A matrix without a zero cycle, and a family with a positive
visualised entry, take ``critical_graph`` with Karp's cycle mean.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .digraph import (
    CriticalStructure,
    critical_graph,
    is_irreducible,
    max_cycle_mean,
    zero_critical_graph,
    zero_cycle_edges,
)
from .semiring import (
    MaxPlusMatrix,
    Number,
    Scalar,
    _star,
    entrywise_inf,
    entrywise_sup,
    kleene_star,
    mp_multiply,
    mp_power,
)


class EnsembleError(ValueError):
    """The generator family cannot form a workable ensemble."""


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail record of the working assumptions plus a profile code.

    Profiles classify how the critical digraph sits inside the ambient one:
    P0 - one critical component whose cyclicity equals the ambient one;
    P1 - one critical component, ambient digraph primitive, cyclicity > 1;
    P2 - one critical component, 1 < ambient cyclicity < critical cyclicity;
    P3 - several critical components, ambient cyclicity equal to their lcm.
    """

    irreducible: bool
    strongly_equivalent: bool
    inf_equivalent: bool
    sup_cycle_mean_zero: bool
    visualised: bool
    profile: str
    diagnostics: tuple[str, ...]

    def all_core(self) -> bool:
        return (
            self.irreducible
            and self.strongly_equivalent
            and self.inf_equivalent
            and self.sup_cycle_mean_zero
            and self.visualised
        )


@dataclass(frozen=True)
class Ensemble:
    """Validated generator family with its precomputed shared structure.

    ``normalized`` holds the working generators: cycle-mean normalised and
    visualised.  All products and analyses use these, never the raw inputs.
    """

    generators: tuple[MaxPlusMatrix, ...]
    normalized: tuple[MaxPlusMatrix, ...]
    visualisation_vector: tuple[Number, ...]
    a_sup: MaxPlusMatrix
    a_inf: MaxPlusMatrix
    b_sup: MaxPlusMatrix
    lambda_star: Scalar
    critical: CriticalStructure
    assumption_report: AssumptionReport

    @property
    def size(self) -> int:
        return self.a_sup.rows

    @property
    def critical_nodes(self) -> frozenset[int]:
        return self.critical.critical_nodes

    def generator_count(self) -> int:
        return len(self.normalized)


@dataclass(frozen=True)
class PathWeights:
    """Optimal path weights against the supremum and infimum matrices.

    alpha/beta: best path weight into / out of the critical set on the
    supremum digraph.  w_inf/v_inf: the same on the infimum digraph.
    gamma_avoid[i][j]: best weight of a nonempty walk i -> j that touches no
    critical node at all (eps when every such walk is impossible).
    """

    alpha: tuple[Scalar, ...]
    beta: tuple[Scalar, ...]
    gamma_avoid: MaxPlusMatrix
    w_inf: tuple[Scalar, ...]
    v_inf: tuple[Scalar, ...]


def _is_visualised(mats: Sequence[MaxPlusMatrix], crit: CriticalStructure) -> bool:
    for m in mats:
        for i, row in enumerate(m.data):
            for j, v in enumerate(row):
                if v is None:
                    continue
                if v > 0:
                    return False
                if (i, j) in crit.critical_edges and v != 0:
                    return False
    return True


def _top(values: Iterable[Scalar]) -> Scalar:
    """The first largest finite value; eps when none is finite."""
    return max((v for v in values if v is not None), default=None)


def _critical(m: MaxPlusMatrix, nonpositive: bool) -> CriticalStructure:
    """The critical structure of ``m``: off its zero cycles when every
    finite entry is <= 0 and it has one, else by ``critical_graph`` at
    Karp's cycle mean."""
    return (zero_critical_graph(m) if nonpositive else None) or critical_graph(m, max_cycle_mean(m))


def build_ensemble(generators: Sequence[MaxPlusMatrix]) -> Ensemble:
    """Normalise, visualise and analyse a family of generators."""
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
        # critical_graph starred a_sup0 shifted by -lam_sup0 = 0: its star.
        star = crit0.__dict__["_star"]
        scaled = []
        for i in range(n):
            best = _top(star.data[i][c] for c in sorted(crit0.critical_nodes))
            if best is None:
                raise EnsembleError(
                    f"node {i} cannot reach the critical set; no finite visualisation exists"
                )
            scaled.append(best)
        x = tuple(scaled)
        normalized = [m.diagonal_similarity(x) for m in normalized]

    visualised = tuple(normalized)
    nonpositive = all(v is None or v <= 0 for m in visualised for row in m.data for v in row)
    a_sup = entrywise_sup(visualised)
    a_inf = entrywise_inf(visualised)
    crit = _critical(a_sup, nonpositive)

    noncritical = [i for i in range(n) if i not in crit.critical_nodes]
    b_sup = a_sup.mask(noncritical) if noncritical else MaxPlusMatrix.epsilon(n, n)
    lambda_star = max_cycle_mean(b_sup)

    report = _assess(visualised, a_sup, a_inf, crit, nonpositive)
    return Ensemble(
        generators=tuple(generators),
        normalized=visualised,
        visualisation_vector=x,
        a_sup=a_sup,
        a_inf=a_inf,
        b_sup=b_sup,
        lambda_star=lambda_star,
        critical=crit,
        assumption_report=report,
    )


def _assess(
    mats: Sequence[MaxPlusMatrix],
    a_sup: MaxPlusMatrix,
    a_inf: MaxPlusMatrix,
    crit: CriticalStructure,
    nonpositive: bool,
) -> AssumptionReport:
    notes: list[str] = []

    # Only each generator's critical edges are compared: both routes take
    # the critical nodes from the nontrivial components of those edges.
    edge_sets = [
        (zero_cycle_edges(m) if nonpositive else None) or critical_graph(m, max_cycle_mean(m)).critical_edges
        for m in mats
    ]
    irU = all(is_irreducible(m) for m in mats)
    if not irU:
        notes.append("some generator is not irreducible")

    sup_support = a_sup.support()
    same_support = all(m.support() == sup_support for m in mats)
    same_critical = True
    for idx, edges in enumerate(edge_sets):
        if edges != crit.critical_edges:
            same_critical = False
            notes.append(f"generator {idx} has a different critical digraph")
    strongly = same_support and same_critical
    if not same_support:
        notes.append("generators do not share one finiteness pattern")

    inf_equiv = a_inf.support() == sup_support
    if not inf_equiv:
        notes.append("the entrywise infimum loses edges of the common digraph")

    lam_sup = crit.lam
    d1 = lam_sup == 0
    if not d1:
        notes.append(f"supremum matrix has cycle mean {lam_sup}, not zero")

    d2 = _is_visualised(list(mats) + [a_sup], crit)
    if not d2:
        notes.append("the family is not visualised: critical entries must be zero, others nonpositive")

    profile = _profile(crit)
    return AssumptionReport(
        irreducible=irU,
        strongly_equivalent=strongly,
        inf_equivalent=inf_equiv,
        sup_cycle_mean_zero=d1,
        visualised=d2,
        profile=profile,
        diagnostics=tuple(notes),
    )


def _profile(crit: CriticalStructure) -> str:
    m = crit.component_count
    gamma = crit.global_cyclicity
    r = crit.ambient_cyclicity
    if m == 0:
        return "none"
    if m == 1:
        if gamma == r:
            return "P0"
        if r == 1 and gamma > 1:
            return "P1"
        if 1 < r < gamma:
            return "P2"
        return "other"
    return "P3" if r == gamma else "other"


def path_weights(ensemble: Ensemble) -> PathWeights:
    """All optimal path weight tables used by the length thresholds.

    Computed on the first call and kept on the ensemble instance, in the
    style of ``functools.cached_property`` (the frozen dataclass's
    ``__setattr__`` is bypassed through ``__dict__``).  The memo is not a
    field, so equality and ``repr`` ignore it, and it lives and dies with
    its ensemble.
    """
    cached = ensemble.__dict__.get("_path_weights")
    if cached is None:
        cached = ensemble.__dict__["_path_weights"] = _compute_path_weights(ensemble)
    return cached


def _compute_path_weights(ensemble: Ensemble) -> PathWeights:
    crit_nodes = sorted(ensemble.critical_nodes)
    # a_inf and b_sup lie entrywise below a_sup, so the convergence check of
    # the checked star on a_sup covers their stars too.
    star_sup = kleene_star(ensemble.a_sup)
    star_inf = _star(ensemble.a_inf)

    n = ensemble.size
    alpha = tuple(_top(star_sup.data[i][c] for c in crit_nodes) for i in range(n))
    beta = tuple(_top(star_sup.data[c][j] for c in crit_nodes) for j in range(n))
    w_inf = tuple(_top(star_inf.data[i][c] for c in crit_nodes) for i in range(n))
    v_inf = tuple(_top(star_inf.data[c][j] for c in crit_nodes) for j in range(n))
    gamma_avoid = mp_multiply(ensemble.b_sup, _star(ensemble.b_sup))
    return PathWeights(alpha=alpha, beta=beta, gamma_avoid=gamma_avoid, w_inf=w_inf, v_inf=v_inf)


def u_k(ensemble: Ensemble, k: int) -> MaxPlusMatrix:
    """Optimal length-k walk weights on the infimum digraph (its kth power)."""
    if k < 1:
        raise ValueError(f"walk length must be at least 1, got {k}")
    return mp_power(ensemble.a_inf, k)
