"""Length thresholds after which word products acquire CSR structure.

Two regimes are covered.  The weak threshold makes the CSR form an
entrywise upper bound of the product, for any ensemble whose noncritical
cycle mean is negative.  The ambient threshold makes the CSR form exact,
provided the critical digraph is strongly connected and shares the ambient
digraph's cyclicity (profile P0); it combines optimal path weights, the
noncritical cycle mean and Schwarz's transient for imprimitive Boolean
powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Optional

from .ensemble import Ensemble, path_weights
from .semiring import MaxPlusMatrix, Scalar, ceil_int, finite_rows, row_product
from .trellis import Word, first_passage_data


class AssumptionError(ValueError):
    """The ensemble violates a precondition of the requested threshold."""


def wielandt(n: int) -> int:
    """Classical primitive-matrix transient: (n-1)^2 + 1, and 0 at n = 0."""
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    return (n - 1) ** 2 + 1 if n >= 1 else 0


def schwarz(gamma: int, n: int) -> int:
    """Imprimitive analogue of the Wielandt transient.

    gamma * Wi(floor(n / gamma)) + (n mod gamma).
    """
    if gamma < 1:
        raise ValueError(f"cyclicity must be positive, got {gamma}")
    if n < 0:
        raise ValueError(f"node count must be nonnegative, got {n}")
    return gamma * wielandt(n // gamma) + n % gamma


def _ratio(numerator: float, lam: Optional[float]) -> float:
    # lam is None encodes eps; the threshold expressions tend to their
    # finite limit (the numerator term vanishes) in that case.
    return 0.0 if lam is None else numerator / lam


@dataclass(frozen=True)
class WeakBoundResult:
    """Outcome of scanning for the entrywise upper-bound threshold.

    ``k`` is the smallest length from which the condition holds at every
    scanned length up to ``certified_up_to``; ``first_k`` is the smallest
    length satisfying its own condition in isolation (the condition can
    hold vacuously at small lengths where no critical-avoiding pair is
    reachable in exactly that many steps, then fail again).  ``period`` is
    the stopping point (T, sigma) of the scan: a_inf^(T+sigma) equals
    a_inf^T exactly, so every threshold from length T on repeats with
    period sigma.  It is None when no power repeated within the window and
    the scan ran to ``certified_up_to``.
    """

    k: Optional[int]
    first_k: Optional[int]
    certified_up_to: int
    threshold_at_k: Optional[float]
    lambda_star: Optional[float]
    slack: int
    finite_pairs: int
    diagnostics: tuple[str, ...]
    period: Optional[tuple[int, int]] = None


def weak_csr_bound(ensemble: Ensemble, k_max: int) -> WeakBoundResult:
    """Length threshold from which the CSR form dominates every product.

    For each length k the condition compares k against the largest value of
    (u^k_ij - gamma_ij) / lambda_star + (n - q) over pairs whose
    critical-avoiding weight gamma_ij and length-k infimum walk weight
    u^k_ij are both finite; pairs without a critical-avoiding path impose
    nothing.  Every length passing the condition has all its word products
    dominated entrywise by their CSR form.  The result is the start of the
    final all-pass run up to k_max, so the guarantee covers the whole
    certified window rather than one incidental length.

    The threshold at length k depends only on u^k = a_inf^k, and
    u^(k+1) = u^k (x) a_inf.  So the scan stops at the first exact repeat
    u^(T+sigma) == u^T and fills the rest of the window by periodicity,
    holding the T+sigma-1 distinct powers until then.  When no power
    repeats within k_max (the infimum's cycle mean is negative, or float
    rounding keeps the powers drifting) it steps through all k_max lengths
    and holds all k_max powers.
    """
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
    thresholds: list[Optional[float]] = []
    # u holds the rows of a_inf^k; each step is the row-sparse product that
    # mp_multiply(u, a_inf) computes, without building a matrix per length.
    # seen maps every power so far to its exponent.
    inf_rows = finite_rows(ensemble.a_inf)
    u = ensemble.a_inf.data
    seen: dict[tuple[tuple[Scalar, ...], ...], int] = {}
    period = None
    for k in range(1, k_max + 1):
        if u in seen:
            period = (seen[u], k - seen[u])
            break
        seen[u] = k
        worst = None
        for urow, avoid_row in zip(u, avoid_rows):
            for j, g in avoid_row:
                uk = urow[j]
                if uk is None:
                    continue
                value = float(slack) if lam is None else (uk - g) / lam + slack
                if worst is None or value > worst:
                    worst = value
        thresholds.append(worst)
        u = tuple(tuple(row_product(row, inf_rows, n)) for row in u)
    if period is not None:
        sigma = period[1]
        while len(thresholds) < k_max:
            thresholds.append(thresholds[-sigma])
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
            period=period,
        )
    stable = k_max
    while stable > 1 and ok[stable - 2]:
        stable -= 1
    return WeakBoundResult(
        k=stable,
        first_k=first_k,
        certified_up_to=k_max,
        threshold_at_k=thresholds[stable - 1],
        lambda_star=lam,
        slack=slack,
        finite_pairs=finite_pairs,
        diagnostics=(),
        period=period,
    )


@dataclass(frozen=True)
class BoundReport:
    """Exactness threshold for profile-P0 ensembles, with both branch tables.

    branch_connect[i][j] caps the lengths needed to enter and leave the
    critical set plus Schwarz's transient for the critical walk in between;
    branch_avoid[i][j] (finite only where a critical-avoiding path exists)
    is the length beyond which avoiding the critical set is never optimal.
    The threshold is the largest entry of both tables and ambient_k the
    least integer length at or above it.
    """

    profile: str
    lambda_star: Optional[float]
    schwarz_term: int
    branch_connect: tuple[tuple[float, ...], ...]
    branch_avoid: tuple[tuple[Scalar, ...], ...]
    bound: float
    ambient_k: int

    def branch_connect_matrix(self) -> MaxPlusMatrix:
        return MaxPlusMatrix.from_rows(self.branch_connect)

    def branch_avoid_matrix(self) -> MaxPlusMatrix:
        return MaxPlusMatrix.from_rows(self.branch_avoid)


def ambient_csr_bound(ensemble: Ensemble) -> BoundReport:
    """Length threshold after which every word product is exactly CSR.

    Requires profile P0 and a negative (or eps) noncritical cycle mean.
    """
    report = ensemble.assumption_report
    if report.profile != "P0":
        crit = ensemble.critical
        raise AssumptionError(
            "exactness threshold needs profile P0; got profile "
            f"{report.profile} (components={crit.component_count}, "
            f"critical cyclicity={crit.global_cyclicity}, ambient cyclicity={crit.ambient_cyclicity})"
        )
    lam = ensemble.lambda_star
    if lam is not None and lam >= 0:
        raise AssumptionError(f"noncritical cycle mean {lam} is nonnegative")
    pw = path_weights(ensemble)
    n = ensemble.size
    q = len(ensemble.critical_nodes)
    if any(v is None for v in pw.alpha + pw.beta + pw.w_inf + pw.v_inf):
        raise AssumptionError("optimal path weights are not all finite; ensemble is not irreducible")
    sch = schwarz(ensemble.critical.global_cyclicity, q)
    connect_const = 2 * (n - q) + sch
    avoid_const = n - q + 1

    connect = []
    avoid: list[list[Scalar]] = []
    bound = None
    for i in range(n):
        crow = []
        arow: list[Scalar] = []
        for j in range(n):
            u_ij = pw.w_inf[i] + pw.v_inf[j]
            c_val = _ratio(u_ij - pw.alpha[i] - pw.beta[j], lam) + connect_const
            crow.append(c_val)
            if bound is None or c_val > bound:
                bound = c_val
            g_ij = pw.gamma_avoid.data[i][j]
            if g_ij is None:
                arow.append(None)
            else:
                a_val = _ratio(u_ij - g_ij, lam) + avoid_const
                arow.append(a_val)
                if a_val > bound:
                    bound = a_val
        connect.append(tuple(crow))
        avoid.append(arow)
    if not isfinite(bound):
        raise AssumptionError(f"the ambient bound is {bound}: the weights overflow floating point")
    return BoundReport(
        profile=report.profile,
        lambda_star=lam,
        schwarz_term=sch,
        branch_connect=tuple(connect),
        branch_avoid=tuple(tuple(row) for row in avoid),
        bound=bound,
        ambient_k=max(1, ceil_int(bound)),
    )


@dataclass(frozen=True)
class EntryMismatch:
    row: int
    col: int
    product_value: Scalar
    expected: Scalar
    csr_value: Scalar


@dataclass(frozen=True)
class ValueCheckReport:
    """Entrywise turnpike check of one word product under profile P0.

    Wherever the ambient cyclic classes forbid length-k walks the entry must
    be eps; everywhere else it must equal the sum of the first-passage
    weights into and out of the critical set, and the CSR form must agree.
    The guarantee kicks in once k reaches ``implicit_bound`` (computed from
    the word's own first-passage weights); below it the report still lists
    whatever mismatches exist.
    """

    k: int
    implicit_bound: Optional[float]
    meets_bound: bool
    mismatches: tuple[EntryMismatch, ...]

    @property
    def holds(self) -> bool:
        return not self.mismatches


def turnpike_value_check(ensemble: Ensemble, word: Word) -> ValueCheckReport:
    from .csr import csr_product, csr_terms

    report = ensemble.assumption_report
    if report.profile != "P0":
        raise AssumptionError(f"entrywise value check needs profile P0, got {report.profile}")
    lam = ensemble.lambda_star
    pw = path_weights(ensemble)
    n = ensemble.size
    q = len(ensemble.critical_nodes)
    k = len(word)
    w_star, _, v_star, _ = first_passage_data(ensemble, word)
    terms = csr_terms(ensemble, word)
    csr_mat = csr_product(terms)
    prod_mat = terms.product

    sch = schwarz(ensemble.critical.global_cyclicity, q)
    implicit = None
    for i in range(n):
        for j in range(n):
            if w_star[i] is None or v_star[j] is None:
                continue
            u_star = w_star[i] + v_star[j]
            cand = _ratio(u_star - pw.alpha[i] - pw.beta[j], lam) + 2 * (n - q) + sch
            g_ij = pw.gamma_avoid.data[i][j]
            if g_ij is not None:
                cand = max(cand, _ratio(u_star - g_ij, lam) + (n - q + 1))
            if implicit is None or cand > implicit:
                implicit = cand

    mismatches = []
    for i in range(n):
        for j in range(n):
            if ensemble.critical.class_reaches(i, j, k) and w_star[i] is not None and v_star[j] is not None:
                expected: Scalar = w_star[i] + v_star[j]
            else:
                expected = None
            if prod_mat.data[i][j] != expected or csr_mat.data[i][j] != expected:
                mismatches.append(
                    EntryMismatch(i, j, prod_mat.data[i][j], expected, csr_mat.data[i][j])
                )
    meets = implicit is None or k >= implicit - 1e-9
    return ValueCheckReport(
        k=k,
        implicit_bound=implicit,
        meets_bound=meets,
        mismatches=tuple(mismatches),
    )
