"""Length thresholds after which word products acquire CSR structure.

Two regimes are covered.  The weak threshold makes the CSR form an
entrywise upper bound of the product, for any ensemble whose noncritical
cycle mean is negative.  The ambient threshold makes the CSR form exact,
provided the critical digraph is strongly connected and shares the ambient
digraph's cyclicity (profile P0); it combines optimal path weights, the
noncritical cycle mean and Schwarz's transient for imprimitive Boolean
powers.

Every threshold here has the form num / lambda_star + const, with num a
difference of path weights and const an integer.  The lengths and
verdicts compare such values exactly.  The threshold tables and
``threshold_at_k`` are for display: each cell is the float num / lambda_star,
rounded once, plus const.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .ensemble import Ensemble, path_weights
from .semiring import MaxPlusMatrix, Number, Scalar, finite_rows, rational, row_product
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


def _display(lam: Scalar, const: int) -> Callable[[Number], float]:
    """num -> num / lam + const for display: the quotient rounded once to a
    float, then the integer const added.  lam is None encodes eps, where
    the numerator term vanishes."""
    if lam is None:
        return lambda num: float(const)
    q, p = lam.denominator, lam.numerator
    return lambda num: float(num * q / p) + const


def _largest(nums: Sequence[Number], lam: Scalar, const: int) -> Scalar:
    """The exact maximum of num / lam + const over ``nums``; None when empty."""
    if not nums:
        return None
    if lam is None:
        return const
    num = min(nums) if lam < 0 else max(nums)
    return rational(num * lam.denominator, lam.numerator) + const


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
    lambda_star: Scalar
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
    u^(k+1) = u^k (x) a_inf.  So the scan stops at the first repeat
    u^(T+sigma) == u^T, holding the T+sigma-1 distinct powers until then;
    from length T on, each threshold repeats with period sigma, and the
    lengths past the scan follow from one period.  When no power repeats
    within k_max (the infimum's cycle mean is negative) it steps through
    all k_max lengths and holds all k_max powers.

    A length k fails when k <= num / lambda_star + slack for some pair, with
    num = u^k_ij - gamma_ij.  lambda_star < 0, so the least num binds, and
    the largest failing length is floor(num / lambda_star) + slack.
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
    # least[k-1]: the least u^k_ij - gamma_ij over finite pairs, None when
    # no pair is finite at length k.  u holds the rows of a_inf^k; each
    # step is the row-sparse product that mp_multiply(u, a_inf) computes.
    # seen maps every power so far to its exponent.
    inf_rows = finite_rows(ensemble.a_inf)
    u = ensemble.a_inf.data
    seen: dict[tuple[tuple[Scalar, ...], ...], int] = {}
    least: list[Scalar] = []
    period = None
    for k in range(1, k_max + 1):
        if u in seen:
            period = (seen[u], k - seen[u])
            break
        seen[u] = k
        nums = [urow[j] - g for urow, avoid_row in zip(u, avoid_rows) for j, g in avoid_row if urow[j] is not None]
        least.append(min(nums, default=None))
        u = tuple(tuple(row_product(row, inf_rows, n)) for row in u)

    # From length T on, the lengths k + m * sigma share the threshold of k.
    # top: the largest length failing that threshold, capped at k_max.
    last_fail, first_k = 0, None
    for k, d in enumerate(least, start=1):
        step = period[1] if period and k >= period[0] else k_max
        top = 0 if d is None else min(k_max, slack if lam is None else d * lam.denominator // lam.numerator + slack)
        if top >= k:
            last_fail = max(last_fail, top - (top - k) % step)
        passing = k if top < k else top + 1 + (k - top - 1) % step
        if passing <= k_max and (first_k is None or passing < first_k):
            first_k = passing
    if last_fail == k_max:
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
    at = last_fail + 1
    if at > len(least):  # past the scan: its class within the period
        at = period[0] + (at - period[0]) % period[1]
    d = least[at - 1]
    return WeakBoundResult(
        k=last_fail + 1,
        first_k=first_k,
        certified_up_to=k_max,
        threshold_at_k=None if d is None else _display(lam, slack)(d),
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
    The threshold ``bound`` is the exact largest value of both tables and
    ambient_k the least integer length at or above it; the tables hold the
    display floats.
    """

    profile: str
    lambda_star: Scalar
    schwarz_term: int
    branch_connect: tuple[tuple[float, ...], ...]
    branch_avoid: tuple[tuple[Optional[float], ...], ...]
    bound: Number
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

    connect_cell = _display(lam, connect_const)
    avoid_cell = _display(lam, avoid_const)
    connect = []
    avoid: list[list[Optional[float]]] = []
    connect_nums: list[Number] = []
    avoid_nums: list[Number] = []
    for i in range(n):
        crow = []
        arow: list[Optional[float]] = []
        for j in range(n):
            u_ij = pw.w_inf[i] + pw.v_inf[j]
            num = u_ij - pw.alpha[i] - pw.beta[j]
            connect_nums.append(num)
            crow.append(connect_cell(num))
            g_ij = pw.gamma_avoid.data[i][j]
            if g_ij is None:
                arow.append(None)
            else:
                avoid_nums.append(u_ij - g_ij)
                arow.append(avoid_cell(u_ij - g_ij))
        connect.append(tuple(crow))
        avoid.append(arow)
    bound = _largest(connect_nums, lam, connect_const)
    if avoid_nums:
        bound = max(bound, _largest(avoid_nums, lam, avoid_const))
    return BoundReport(
        profile=report.profile,
        lambda_star=lam,
        schwarz_term=sch,
        branch_connect=tuple(connect),
        branch_avoid=tuple(tuple(row) for row in avoid),
        bound=bound,
        ambient_k=max(1, math.ceil(bound)),
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
    implicit_bound: Scalar
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
    connect_nums: list[Number] = []
    avoid_nums: list[Number] = []
    for i in range(n):
        for j in range(n):
            if w_star[i] is None or v_star[j] is None:
                continue
            u_star = w_star[i] + v_star[j]
            connect_nums.append(u_star - pw.alpha[i] - pw.beta[j])
            g_ij = pw.gamma_avoid.data[i][j]
            if g_ij is not None:
                avoid_nums.append(u_star - g_ij)
    implicit = _largest(connect_nums, lam, 2 * (n - q) + sch)
    if avoid_nums:
        implicit = max(implicit, _largest(avoid_nums, lam, n - q + 1))

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
    meets = implicit is None or k >= implicit
    return ValueCheckReport(
        k=k,
        implicit_bound=implicit,
        meets_bound=meets,
        mismatches=tuple(mismatches),
    )
