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
required) and on float overflow to a cycle mean or visualised entry that
is not finite.

The critical structure of the normalised supremum, which the visualisation
reads, comes from ``critical_graph``; when its cycle mean is +0.0 the star
that ``critical_graph`` computed is the star of the supremum itself, and
the visualisation reuses it.  After visualisation the build reads one
exactness predicate off the visualised generators (``exactness``): whether
every finite entry is <= 0, and their largest |entry| when every one is an
integer-valued float other than -0.0.  When both hold and n times that
scale is below 2**53, every walk sum the critical routes form is an exact
integer, so the critical digraphs of the supremum and of each generator
are read off their cycles of zero edges (``zero_critical_graph``), with no
star and no cycle mean; the result is the one ``critical_graph`` gives, bit
for bit.  A matrix without a zero cycle, and all other data, take
``critical_graph`` with Karp's cycle mean as before.  The word-product
fold reads the same predicate (``trellis._adjacency``).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, isfinite
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
    TOL,
    MaxPlusMatrix,
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
    visualisation_vector: tuple[float, ...]
    a_sup: MaxPlusMatrix
    a_inf: MaxPlusMatrix
    b_sup: MaxPlusMatrix
    lambda_star: Optional[float]
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
                if v > TOL:
                    return False
                if (i, j) in crit.critical_edges and abs(v) > TOL:
                    return False
    return True


def _top(values: Iterable[Scalar]) -> Scalar:
    """The first largest finite value; eps when none is finite."""
    return max((v for v in values if v is not None), default=None)


def _cycle_mean(m: MaxPlusMatrix, what: str) -> Optional[float]:
    """Karp's cycle mean of ``m``, rejected when float overflow made it infinite or NaN."""
    lam = max_cycle_mean(m)
    if lam is not None and not isfinite(lam):
        raise EnsembleError(f"{what} has cycle mean {lam}: its weights overflow floating point")
    return lam


def _entry_profile(mats: Sequence[MaxPlusMatrix]) -> tuple[bool, Optional[float]]:
    values = [v for m in mats for row in m.data for v in row if v is not None]
    exact = all(v.is_integer() and (v != 0 or copysign(1.0, v) > 0) for v in values)
    return all(v <= 0 for v in values), max(map(abs, values), default=0.0) if exact else None


def exactness(ensemble: "Ensemble") -> tuple[bool, Optional[float]]:
    """Whether every finite visualised entry is <= 0, and their largest
    |entry| when the entries are exact (integer-valued floats other than
    -0.0), else None.

    ``build_ensemble`` computes this once and keeps it on the ensemble
    instance, as ``path_weights`` is kept; an ensemble made another way
    (``dataclasses.replace``) computes it on the first call.
    """
    cached = ensemble.__dict__.get("_exactness")
    if cached is None:
        cached = ensemble.__dict__["_exactness"] = _entry_profile(ensemble.normalized)
    return cached


def _critical(m: MaxPlusMatrix, exact: bool, what: str) -> CriticalStructure:
    """The critical structure of ``m``: off its zero cycles on exact data
    when it has one, else by ``critical_graph`` at Karp's cycle mean."""
    return (zero_critical_graph(m) if exact else None) or critical_graph(m, _cycle_mean(m, what))


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
        lam = _cycle_mean(g, f"generator {idx}")
        if lam is None:
            raise EnsembleError(f"generator {idx} has no cycles; its cycle mean is eps")
        normalized.append(g.shift(-lam))

    a_sup0 = entrywise_sup(normalized)
    lam_sup0 = _cycle_mean(a_sup0, "the normalised supremum")
    crit0 = critical_graph(a_sup0, lam_sup0)

    x = (0.0,) * n
    if abs(lam_sup0) <= TOL and not _is_visualised(normalized + [a_sup0], crit0):
        # critical_graph starred a_sup0 shifted by -lam_sup0, which changes
        # no entry when lam_sup0 is +0.0.
        star = crit0.__dict__["_star"] if lam_sup0 == 0 and copysign(1.0, lam_sup0) > 0 else _star(a_sup0)
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
    if any(v is not None and not isfinite(v) for m in visualised for row in m.data for v in row):
        raise EnsembleError("visualised entries overflow floating point")
    nonpositive, scale = profile = _entry_profile(visualised)
    exact = nonpositive and scale is not None and n * scale < 2.0**53
    a_sup = entrywise_sup(visualised)
    a_inf = entrywise_inf(visualised)
    crit = _critical(a_sup, exact, "the supremum")

    noncritical = [i for i in range(n) if i not in crit.critical_nodes]
    b_sup = a_sup.mask(noncritical) if noncritical else MaxPlusMatrix.epsilon(n, n)
    lambda_star = _cycle_mean(b_sup, "the noncritical supremum")

    report = _assess(visualised, a_sup, a_inf, crit, exact)
    ensemble = Ensemble(
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
    ensemble.__dict__["_exactness"] = profile
    return ensemble


def _assess(
    mats: Sequence[MaxPlusMatrix],
    a_sup: MaxPlusMatrix,
    a_inf: MaxPlusMatrix,
    crit: CriticalStructure,
    exact: bool,
) -> AssumptionReport:
    notes: list[str] = []

    # Only each generator's critical edges are compared: both routes take
    # the critical nodes from the nontrivial components of those edges.
    edge_sets = [
        (zero_cycle_edges(m) if exact else None)
        or critical_graph(m, _cycle_mean(m, f"visualised generator {idx}")).critical_edges
        for idx, m in enumerate(mats)
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
    d1 = abs(lam_sup) <= TOL
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
