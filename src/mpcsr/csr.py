"""CSR terms of word products and the rank-compressed factorisation.

The structure matrix S carries weight 0 on every critical edge and eps
elsewhere.  For a product G of length k the CSR terms are C = G (*) S^v and
R = S^v (*) G, with v = (t+1)*gamma - (k mod gamma) and t*gamma past the
transient of S.  S is block-diagonal over the critical components, so that
transient is the largest component transient, and past it S^v is the
cyclic-class pattern: (S^v)_cd = 0 exactly when c and d lie in one
component nu and class(d) - class(c) = v modulo gamma_nu.  Column d of C is
therefore the maximum of G's columns over the class class(d) - v, and row c
of R the maximum of G's rows over the class class(c) + v.  C, R, the CSR
product and its rank-compressed factors all follow from these class maxima
by index shifts; no power of S is formed.

``is_csr`` decides whether G equals its CSR form with ``trellis.csr_mismatch``,
the test the word fold runs for the CSR onset, so one routine serves both.
The CSR matrix itself, ``CsrCheck.csr``, is built on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .bounds import wielandt
from .digraph import CriticalStructure
from .ensemble import Ensemble
from .semiring import MaxPlusMatrix, Scalar, matrices_equal, mp_multiply
from .trellis import ClassMaxima, Word, class_maxima, csr_mismatch, gamma_product


def _eps_grid(n: int) -> list[list[Scalar]]:
    return [[None] * n for _ in range(n)]


def _matrix(grid: list[list[Scalar]]) -> MaxPlusMatrix:
    """The square matrix of a grid of exact values (no entry is re-parsed)."""
    return MaxPlusMatrix(len(grid), len(grid), tuple(map(tuple, grid)))


def structure_matrix(n: int, edges) -> MaxPlusMatrix:
    """n-by-n matrix with 0 on the given edges and eps everywhere else."""
    grid = _eps_grid(n)
    for u, v in edges:
        grid[u][v] = 0
    return _matrix(grid)


def periodicity_threshold(s: MaxPlusMatrix, gamma: int) -> int:
    """Smallest T >= 1 with s^T equal to s^(T+gamma).

    The search is capped at the Wielandt bound plus gamma; running past the
    cap means the supplied period does not match the matrix.
    """
    if not s.is_square:
        raise ValueError("periodicity threshold needs a square matrix")
    if gamma < 1:
        raise ValueError(f"period must be positive, got {gamma}")
    cap = wielandt(s.rows) + gamma
    powers = [MaxPlusMatrix.identity(s.rows), s]
    for t in range(1, cap + 1):
        while len(powers) <= t + gamma:
            powers.append(mp_multiply(powers[-1], s))
        if matrices_equal(powers[t], powers[t + gamma]):
            return t
    raise ValueError(
        f"powers did not become periodic with period {gamma} within {cap} steps"
    )


def _component_thresholds(ensemble: Ensemble) -> tuple[int, ...]:
    """Transient of the structure matrix of every critical component.

    These depend only on the critical graph, so they are computed on the
    first call and kept on the ensemble instance, as ``path_weights`` is.
    """
    cached = ensemble.__dict__.get("_thresholds_nu")
    if cached is None:
        n = ensemble.size
        cached = ensemble.__dict__["_thresholds_nu"] = tuple(
            periodicity_threshold(structure_matrix(n, sorted(comp.edges)), comp.cyclicity)
            for comp in ensemble.critical.components
        )
    return cached


@dataclass(frozen=True)
class CsrTerms:
    """The class maxima of one word product and the exponents of its CSR form."""

    word: Word
    k: int
    product: MaxPlusMatrix
    critical: CriticalStructure
    gamma: int
    gamma_nu: tuple[int, ...]
    threshold: int
    thresholds_nu: tuple[int, ...]
    t_exponent: int
    v_exponent: int
    class_maxima: tuple[ClassMaxima, ...]


def csr_terms(ensemble: Ensemble, word: Word) -> CsrTerms:
    """The class maxima of a word's product, from which C, R and the CSR
    form follow, with the exponents t and v."""
    product = gamma_product(ensemble, word)
    crit = ensemble.critical
    k = len(word)
    gamma = crit.global_cyclicity

    thresholds_nu = _component_thresholds(ensemble)
    # S is block-diagonal over the components, so its transient is theirs.
    threshold = max(thresholds_nu, default=1)
    t = max(1, -(-threshold // gamma))
    v = (t + 1) * gamma - (k % gamma)

    return CsrTerms(
        word=word,
        k=k,
        product=product,
        critical=crit,
        gamma=gamma,
        gamma_nu=tuple(comp.cyclicity for comp in crit.components),
        threshold=threshold,
        thresholds_nu=thresholds_nu,
        t_exponent=t,
        v_exponent=v,
        class_maxima=tuple(class_maxima(product.data, comp) for comp in crit.components),
    )


def compressed_factors(
    maxima: Sequence[ClassMaxima], k: int
) -> list[tuple[int, tuple[Scalar, ...], tuple[Scalar, ...]]]:
    """(representative, column of C', row of R') for every cyclic class.

    For a product of length k the column of C' at the class-l representative
    is the column maximum over class l + k (mod the component's cyclicity),
    and the row of R' is the row maximum over class l itself; C' (*) R' is
    the CSR form C (*) S^(k mod gamma) (*) R.
    """
    return [
        (rep, cm.columns[(cls + k) % cm.component.cyclicity], cm.rows[cls])
        for cm in maxima
        for cls, rep in enumerate(cm.representatives)
    ]


def _factors(terms: CsrTerms, maxima: Sequence[ClassMaxima]) -> tuple[MaxPlusMatrix, MaxPlusMatrix]:
    """Column rep of C and row rep of S^(k mod gamma) (*) R, one rep per class.

    Class-mate columns of C coincide.  Row c of S^(k mod gamma) (*) R is
    rows[class(c)], since (k mod gamma) + v is a multiple of gamma.
    """
    n = terms.product.rows
    c_grid = _eps_grid(n)
    r_grid = _eps_grid(n)
    for rep, column, row in compressed_factors(maxima, terms.k):
        for grid_row, value in zip(c_grid, column):
            grid_row[rep] = value
        r_grid[rep] = row
    return _matrix(c_grid), _matrix(r_grid)


def csr_product(terms: CsrTerms) -> MaxPlusMatrix:
    """C (*) S^(k mod gamma) (*) R, from the rank-compressed factors."""
    return mp_multiply(*_factors(terms, terms.class_maxima))


@dataclass(frozen=True)
class CsrCheck:
    equal: bool
    witness: Optional[tuple[int, int]]
    product_value: Scalar
    csr_value: Scalar
    product: MaxPlusMatrix
    terms: CsrTerms

    @cached_property
    def csr(self) -> MaxPlusMatrix:
        """The CSR form C (*) S^(k mod gamma) (*) R, built on first read."""
        return csr_product(self.terms)


def is_csr(ensemble: Ensemble, word: Word) -> CsrCheck:
    """Entrywise-exact test whether the word product equals its CSR form.

    On failure the witness is the lexicographically first differing
    position, reported with both values.
    """
    terms = csr_terms(ensemble, word)
    product = terms.product
    classes = [cm.component.classes() for cm in terms.class_maxima]
    mismatch, _ = csr_mismatch(product.data, classes, terms.k)
    if mismatch is None:
        return CsrCheck(True, None, None, None, product, terms)
    i, j, csr_value = mismatch
    return CsrCheck(False, (i, j), product.data[i][j], csr_value, product, terms)


@dataclass(frozen=True)
class RankFactors:
    """Two-factor form with one live column per cyclic class per component."""

    c_prime: MaxPlusMatrix
    r_prime: MaxPlusMatrix
    rank_bound: int
    representatives: tuple[tuple[int, ...], ...]


def rank_compress(terms: CsrTerms) -> RankFactors:
    """Collapse duplicate class columns/rows of the CSR factors.

    Keeping the smallest node of every cyclic class reproduces the CSR
    product from factors with at most sum(gamma_nu) live columns and rows.
    """
    c_prime, r_prime = _factors(terms, terms.class_maxima)
    return RankFactors(
        c_prime=c_prime,
        r_prime=r_prime,
        rank_bound=sum(terms.gamma_nu),
        representatives=tuple(cm.representatives for cm in terms.class_maxima),
    )


@dataclass(frozen=True)
class ProjectionReport:
    """Column/row projection identities of the CSR product onto its factors."""

    component_columns_ok: tuple[bool, ...]
    component_rows_ok: tuple[bool, ...]
    global_columns_ok: bool
    global_rows_ok: bool

    @property
    def all_ok(self) -> bool:
        return (
            all(self.component_columns_ok)
            and all(self.component_rows_ok)
            and self.global_columns_ok
            and self.global_rows_ok
        )


def _projections_hold(full: MaxPlusMatrix, cm: ClassMaxima) -> tuple[bool, bool]:
    """Whether the component's columns and rows of ``full`` are its class maxima.

    Column d of C (*) S^(k mod gamma) is columns[class(d)], and row c of
    S^(k mod gamma) (*) R is rows[class(c)].
    """
    nodes = cm.component.class_of.items()
    columns_ok = all(
        row[d] == col for d, cls in nodes for row, col in zip(full.data, cm.columns[cls])
    )
    rows_ok = all(full.data[c] == cm.rows[cls] for c, cls in nodes)
    return columns_ok, rows_ok


def csr_critical_projections(terms: CsrTerms) -> ProjectionReport:
    """At critical columns the trailing factor is redundant; at critical rows
    the leading one is.  Verifies both identities on each component's own
    CSR product and on the global one."""
    per_component = [
        _projections_hold(mp_multiply(*_factors(terms, (cm,))), cm) for cm in terms.class_maxima
    ]
    full = csr_product(terms)
    global_ok = [_projections_hold(full, cm) for cm in terms.class_maxima]
    return ProjectionReport(
        component_columns_ok=tuple(cols for cols, _ in per_component),
        component_rows_ok=tuple(rows for _, rows in per_component),
        global_columns_ok=all(cols for cols, _ in global_ok),
        global_rows_ok=all(rows for _, rows in global_ok),
    )
