"""Word-indexed products and trellis dynamic programs.

A word picks generators by 1-based index; the product of the picked
generators, read left to right, is the transfer matrix of the layered
(trellis) digraph whose stage-l edges carry the l-th generator's weights.
The dynamic programs here never materialise that digraph: they stream over
the word, one stage at a time.

First-passage weights: for a start node i, the best weight of an initial
trellis walk whose one and only critical visit is its final node (weight 0
and length 0 when i itself is critical).  Symmetrically for final walks out
of the critical set.  Ties between equally heavy walks are resolved toward
the shorter one when lengths are reported.  Final walks are initial walks
of the reversed word over the transposed generators, so one routine on the
shared ``row_product`` kernel computes both.

The first-passage DP is a branch-and-bound one.  When every finite entry
of the visualised generators is <= 0 (one flag per ensemble, which covers
the transposes too), a walk can only lose weight as it goes on, so a
partial walk no heavier than the best first passage found so far is
dropped.  A start with no partial walk left is done, and the fold stops
when every start is.  Without the flag nothing is dropped on weight.

The word product is a left fold that may switch to the factored form past
the CSR onset.  When the prefix product G(l) is CSR, it equals C' (*) R'
with one column of C' and one row of R' per critical cyclic class (r rows
in all), so G(l + m) = C' (*) (R' (*) A_(l+1) (*) ... (*) A_(l+m)), by
associativity of the exact product.  The fold tests the prefix at
l = 8, 16, 32, ... (never at the last letter), carries the r rows of R'
from the first l that passes, and expands C' (*) R' once at the end.
Without a critical class, or when no test passes, the plain fold runs
letter by letter.  Either way the product is the one the plain fold gives.

Both folds read the row-adjacency lists (``finite_rows``) of every
generator and of its transpose, built once per ensemble and kept on it.
``gamma_product`` also keeps the last word it folded with that word's
product, so a CSR check followed by the first-passage weights of the same
word folds it once.  Every memo is kept in the ensemble's ``__dict__``, as
``path_weights`` is: equality and ``repr`` ignore it, and it lives and
dies with its ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .digraph import CriticalComponent
from .ensemble import Ensemble, path_weights
from .semiring import MaxPlusMatrix, Scalar, finite_rows, rational, row_product


@dataclass(frozen=True)
class Word:
    """Sequence of 1-based generator indices selecting the product factors."""

    letters: tuple[int, ...]

    def __post_init__(self):
        if not self.letters:
            raise ValueError("a word needs at least one letter")
        if any(l < 1 for l in self.letters):
            raise ValueError("letters are 1-based generator indices")

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def parse(cls, text: str) -> "Word":
        """Parse a comma-separated index list such as ``5,5,1,5``."""
        try:
            letters = tuple(int(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse word {text!r}: {exc}") from exc
        return cls(letters)

    def validate(self, ensemble: Ensemble) -> None:
        count = ensemble.generator_count()
        for l in self.letters:
            if l > count:
                raise IndexError(f"letter {l} exceeds the {count} available generators")


@dataclass(frozen=True)
class TrellisWeights:
    product: MaxPlusMatrix
    w_star: tuple[Scalar, ...]
    v_star: tuple[Scalar, ...]


@dataclass(frozen=True)
class WalkLengthReport:
    """Realised first-passage walk lengths next to their analytic ceilings.

    ``w_bounds``/``v_bounds`` evaluate (weight - path bound) / lambda_star
    plus the noncritical node count, the guaranteed cap on how long an
    optimal first-passage walk can be; when the noncritical part of the
    supremum digraph is acyclic (lambda_star eps) the cap is just the
    noncritical node count.  Optimal-weight plateaus may start even earlier
    than the cap, but never later than min(cap, k); both the caps and k are
    reported so callers can take that minimum themselves.
    """

    k: int
    lambda_star: Scalar
    w_lengths: tuple[Optional[int], ...]
    v_lengths: tuple[Optional[int], ...]
    w_bounds: tuple[Scalar, ...]
    v_bounds: tuple[Scalar, ...]


def _adjacency(ensemble: Ensemble) -> tuple[list, list, bool]:
    """``finite_rows`` of every visualised generator and of its transpose,
    and whether every finite entry is <= 0 (a transpose has the same ones).

    Built on the first call and kept on the ensemble instance.
    """
    cached = ensemble.__dict__.get("_adjacency")
    if cached is None:
        gens = ensemble.normalized
        n = ensemble.size
        rows = [finite_rows(g) for g in gens]
        cached = ensemble.__dict__["_adjacency"] = (
            rows,
            [finite_rows(MaxPlusMatrix(n, n, tuple(zip(*g.data)))) for g in gens],
            all(v <= 0 for g in rows for row in g for _, v in row),
        )
    return cached


@dataclass(frozen=True)
class ClassMaxima:
    """Maxima of a product over the cyclic classes of one critical component.

    ``columns[l][i]`` is the largest entry of row i over the columns of
    class l; ``rows[l][j]`` is the largest entry of column j over the rows
    of class l.
    """

    component: CriticalComponent
    columns: tuple[tuple[Scalar, ...], ...]
    rows: tuple[tuple[Scalar, ...], ...]

    @property
    def representatives(self) -> tuple[int, ...]:
        """The smallest node of every class, in class order."""
        return tuple(min(members) for members in self.component.classes())


def _max(values) -> Scalar:
    return max((x for x in values if x is not None), default=None)


def class_maxima(data: Sequence[Sequence[Scalar]], comp: CriticalComponent) -> ClassMaxima:
    """Class maxima of the square grid ``data`` over one critical component."""
    classes = comp.classes()
    return ClassMaxima(
        component=comp,
        columns=tuple(tuple(_max(row[c] for c in members) for row in data) for members in classes),
        rows=tuple(tuple(map(_max, zip(*(data[d] for d in members)))) for members in classes),
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


def _csr_onset(
    state: Sequence[Sequence[Scalar]], components: Sequence[CriticalComponent], k: int
) -> Optional[tuple[list, list]]:
    """C' by rows (r entries each) and the r rows of R' when ``state``, a
    product of length k, equals C' (*) R' entry for entry; else None."""
    pairs = compressed_factors([class_maxima(state, comp) for comp in components], k)
    left = list(zip(*(column for _, column, _ in pairs)))
    right = [row for _, _, row in pairs]
    for state_row, c_row in zip(state, left):
        for j, x in enumerate(state_row):
            best: Scalar = None
            for c, r_row in zip(c_row, right):
                y = r_row[j]
                if c is not None and y is not None and (best is None or c + y > best):
                    best = c + y
            if best != x:
                return None
    return left, right


def gamma_product(ensemble: Ensemble, word: Word) -> MaxPlusMatrix:
    """Product of the visualised generators in word order.

    The word is folded left to right over plain row lists with
    ``row_product``, which is what ``mp_multiply`` does letter by letter.
    The fold tests prefix lengths 8, 16, 32, ... for the CSR onset
    (``_csr_onset``) and, from the first one that passes, carries the r
    rows of R' instead of n rows (see the module docstring); the product is
    the same.  The last word and its
    product are kept on the ensemble; an equal word (by its letters) gets
    that product back.
    """
    last = ensemble.__dict__.get("_last_product")
    if last is not None and last[0] == word.letters:
        return last[1]
    word.validate(ensemble)
    rows_of = _adjacency(ensemble)[0]
    n = ensemble.size
    k = len(word)
    components = ensemble.critical.components
    check_at = 8 if components else k
    result: Sequence[Sequence[Scalar]] = ensemble.normalized[word.letters[0] - 1].data
    left = None
    for length, letter in enumerate(word.letters[1:], start=2):
        adjacency = rows_of[letter - 1]
        result = [row_product(row, adjacency, n) for row in result]
        if length == check_at < k:
            onset = _csr_onset(result, components, length)
            check_at = k if onset else 2 * length
            if onset:
                left, result = onset
    if left is not None:
        right = [[(j, v) for j, v in enumerate(row) if v is not None] for row in result]
        result = [row_product(row, right, n) for row in left]
    product = MaxPlusMatrix(n, n, tuple(map(tuple, result)))
    ensemble.__dict__["_last_product"] = (word.letters, product)
    return product


def first_passage_data(
    ensemble: Ensemble, word: Word
) -> tuple[tuple[Scalar, ...], tuple[Optional[int], ...], tuple[Scalar, ...], tuple[Optional[int], ...]]:
    """First-passage weights and realised (shortest optimal) lengths.

    Returns (w_star, w_lengths, v_star, v_lengths); lengths are None where
    the critical set is unreachable within the word.  One routine gives
    both: v* is w* of the mirror image, since a final walk from the critical
    set to j, read backwards, is an initial walk from j into it over the
    reversed word on the transposed generators.
    """
    word.validate(ensemble)
    n = ensemble.size
    crit = ensemble.critical_nodes
    rows, cols, nonpositive = _adjacency(ensemble)
    w_star, w_len = _first_passage(rows, word.letters, crit, n, nonpositive)
    v_star, v_len = _first_passage(cols, word.letters[::-1], crit, n, nonpositive)
    return w_star, w_len, v_star, v_len


def _first_passage(
    rows_of: Sequence[list], letters: Sequence[int], crit: frozenset[int], n: int, prune: bool
) -> tuple[tuple[Scalar, ...], tuple[Optional[int], ...]]:
    """Best weight and shortest optimal length of walks into the critical set.

    ``rows_of`` holds each generator's ``finite_rows``; ``reach[i]`` holds
    the best weights of walks from i through noncritical nodes.  Each stage
    extends it by one row product and offers its critical columns as
    candidates; only a strictly heavier one replaces the best, so the
    length is the first stage that attains the best weight.

    With ``prune`` (every finite weight <= 0) an entry x <= ``best[i]`` is
    dropped after the stage's candidate update: every extension of x weighs
    at most x, so it never replaces ``best[i]``.  A surviving entry's
    maximum came from surviving entries only (the dropped ones give at most
    ``best[i]``), so it keeps its value, and w*, the lengths and the
    first-maximum tie rule are those of the full DP.  A start whose row has
    no finite entry left is done, and the fold stops when none is left.
    """
    best: list[Scalar] = [0 if i in crit else None for i in range(n)]
    length: list[Optional[int]] = [0 if i in crit else None for i in range(n)]
    crit_sorted = sorted(crit)
    reach = {i: [0 if x == i else None for x in range(n)] for i in range(n) if i not in crit}
    for step, letter in enumerate(letters, start=1):
        if not reach:
            break
        adjacency = rows_of[letter - 1]
        carried = {}
        for i, row in reach.items():
            out = row_product(row, adjacency, n)
            w = _pop_critical(out, crit_sorted)
            if w is not None and (best[i] is None or w > best[i]):
                best[i] = w
                length[i] = step
            bound = best[i]
            if prune and bound is not None:
                out = [None if x is None or x <= bound else x for x in out]
            if out.count(None) < n:
                carried[i] = out
        reach = carried
    return tuple(best), tuple(length)


def _pop_critical(row: list[Scalar], crit_sorted: Sequence[int]) -> Scalar:
    """First maximum of ``row`` over the critical columns, which become eps."""
    best: Scalar = None
    for c in crit_sorted:
        w = row[c]
        if w is not None and (best is None or w > best):
            best = w
        row[c] = None
    return best


def first_passage_weights(ensemble: Ensemble, word: Word) -> TrellisWeights:
    """Product of the word plus its first-passage weight vectors."""
    w_star, _, v_star, _ = first_passage_data(ensemble, word)
    return TrellisWeights(product=gamma_product(ensemble, word), w_star=w_star, v_star=v_star)


def optimal_walk_lengths(ensemble: Ensemble, word: Word) -> WalkLengthReport:
    """Realised first-passage lengths with their analytic ceilings.

    Rejects ensembles whose noncritical cycle mean is nonnegative; the
    ceilings only make sense when detours decay.
    """
    lam = ensemble.lambda_star
    if lam is not None and lam >= 0:
        raise ValueError(f"noncritical cycle mean {lam} is nonnegative; no length cap exists")
    w_star, w_len, v_star, v_len = first_passage_data(ensemble, word)
    pw = path_weights(ensemble)
    n = ensemble.size
    slack = n - len(ensemble.critical_nodes)

    def cap(weight: Scalar, path_bound: Scalar) -> Scalar:
        if weight is None:
            return None
        if lam is None:
            return slack
        assert path_bound is not None
        return rational(weight - path_bound, lam) + slack

    w_bounds = tuple(cap(w_star[i], pw.alpha[i]) for i in range(n))
    v_bounds = tuple(cap(v_star[j], pw.beta[j]) for j in range(n))
    return WalkLengthReport(
        k=len(word),
        lambda_star=lam,
        w_lengths=w_len,
        v_lengths=v_len,
        w_bounds=w_bounds,
        v_bounds=v_bounds,
    )
