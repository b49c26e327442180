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

On a visualised, strongly equivalent family (``assumption_report``'s
``visualised`` and ``strongly_equivalent``) ``first_passage_weights`` reads
w* and v* off the word's product G: w*[i] = max_c G[i][c] and
v*[j] = max_c G[c][j] over the critical nodes c, with no DP.  Every
generator then has every critical edge at weight 0 and every other finite
entry <= 0.  A critical node has a critical edge out and one in, so a first
passage of any length up to k is padded with zero critical steps to a
length-k walk into the critical set, and no length-k walk into the critical
set beats its own first passage, since the steps after it weigh <= 0.  On
other families the weights come from ``first_passage_data``, which
``optimal_walk_lengths`` always uses, since it reports lengths too.

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
associativity of the exact product.  The fold tests the prefix at l = 8
and then at lengths that grow by a quarter, l + l // 4: 8, 10, 12, 15,
18, 22, ... (never at the last letter).  A word that never reaches its
onset still pays only O(log k) tests, and a prefix past its onset waits at
most a quarter of its length for the next test.  A test
(``csr_mismatch``) builds R' first and then C' row by row, and stops at
the first row that differs, so a failing test costs a few rows.
``csr.is_csr`` runs the same test on a finished product: it is the one
place that compares a product with its CSR form.  The fold carries the r
rows of R' from the first l that passes, and expands C' (*) R' once at
the end.  Without a critical class, or when no test passes, the plain
fold runs letter by letter.  Either way the product is the one the plain
fold gives.

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


def _entry_max(row: Sequence[Scalar], members: Sequence[int]) -> Scalar:
    """The largest entry of ``row`` over the columns ``members``."""
    best = row[members[0]]
    for c in members[1:]:
        x = row[c]
        if x is not None and (best is None or x > best):
            best = x
    return best


def _row_max(data: Sequence[Sequence[Scalar]], members: Sequence[int]) -> Sequence[Scalar]:
    """The entrywise maximum of the rows ``members`` of ``data``; the row
    itself for a class of one."""
    if len(members) == 1:
        return data[members[0]]
    out = list(data[members[0]])
    for d in members[1:]:
        for j, y in enumerate(data[d]):
            if y is not None and (out[j] is None or y > out[j]):
                out[j] = y
    return out


def class_maxima(data: Sequence[Sequence[Scalar]], comp: CriticalComponent) -> ClassMaxima:
    """Class maxima of the square grid ``data`` over one critical component."""
    classes = comp.classes()
    return ClassMaxima(
        component=comp,
        columns=tuple(tuple(_entry_max(row, members) for row in data) for members in classes),
        rows=tuple(tuple(_row_max(data, members)) for members in classes),
    )


def csr_mismatch(
    state: Sequence[Sequence[Scalar]], classes: Sequence[Sequence[Sequence[int]]], k: int
) -> tuple[Optional[tuple[int, int, Scalar]], Optional[tuple[list, list]]]:
    """Whether ``state``, a product of length k, equals C' (*) R' entry for entry.

    Returns (None, (C' by rows of r entries, the r rows of R')) when it
    does.  Otherwise returns the lexicographically first differing entry
    as (i, j, value of C' (*) R' there), and None.  ``state`` may hold its
    rows as lists or tuples.

    ``classes`` holds every critical component's class member lists.  The
    factor of class l takes its row of R' from class l and its column of C'
    from class l + k (mod the component's cyclicity).  R' is built first and
    C' row by row, so a test that fails at an early row stops there.
    """
    right: list = []
    column_classes = []
    for members_of in classes:
        g = len(members_of)
        for cls, members in enumerate(members_of):
            right.append(_row_max(state, members))
            column_classes.append(members_of[(cls + k) % g])
    right_rows = [[(j, y) for j, y in enumerate(row) if y is not None] for row in right]
    n = len(state)
    left = []
    for i, state_row in enumerate(state):
        c_row = [_entry_max(state_row, members) for members in column_classes]
        expected: list[Scalar] = [None] * n
        for c, r_row in zip(c_row, right_rows):
            if c is None:
                continue
            for j, y in r_row:
                s = c + y
                best = expected[j]
                if best is None or s > best:
                    expected[j] = s
        if expected != list(state_row):
            j = next(j for j, (x, y) in enumerate(zip(state_row, expected)) if x != y)
            return (i, j, expected[j]), None
        left.append(c_row)
    return None, (left, right)


def gamma_product(ensemble: Ensemble, word: Word) -> MaxPlusMatrix:
    """Product of the visualised generators in word order.

    The word is folded left to right over plain row lists with
    ``row_product``, which is what ``mp_multiply`` does letter by letter.
    The fold tests prefix lengths 8, 10, 12, 15, ... for the CSR onset
    (``csr_mismatch``) and, from the first one that passes, carries the r
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
    classes = [comp.classes() for comp in ensemble.critical.components]
    check_at = 8 if classes else k
    result: Sequence[Sequence[Scalar]] = ensemble.normalized[word.letters[0] - 1].data
    left = None
    for length, letter in enumerate(word.letters[1:], start=2):
        adjacency = rows_of[letter - 1]
        result = [row_product(row, adjacency, n) for row in result]
        if length == check_at < k:
            _, onset = csr_mismatch(result, classes, length)
            check_at = k if onset else length + length // 4
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
    """Product of the word plus its first-passage weight vectors.

    On a visualised, strongly equivalent family w*[i] and v*[j] are the
    product's maxima over the critical columns of row i and over the
    critical rows of column j (see the module docstring); otherwise they
    come from ``first_passage_data``.
    """
    product = gamma_product(ensemble, word)
    report = ensemble.assumption_report
    if report.visualised and report.strongly_equivalent:
        crit = sorted(ensemble.critical_nodes)
        data = product.data
        w_star = tuple(_entry_max(row, crit) for row in data)
        v_star = tuple(_row_max(data, crit))
    else:
        w_star, _, v_star, _ = first_passage_data(ensemble, word)
    return TrellisWeights(product=product, w_star=w_star, v_star=v_star)


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
