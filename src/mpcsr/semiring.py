"""Exact max-plus (tropical) scalar and matrix arithmetic.

The semiring works over the rationals extended with ``eps`` (the additive
identity, conventionally minus infinity).  ``eps`` is represented by
``None`` so that absorption is explicit: ``eps (+) x = x`` and
``eps (*) x = eps`` hold by construction for every ``x``.

Every finite value is exact: a Python ``int`` when it is integral and a
``fractions.Fraction`` otherwise.  ``from_rows`` turns an integer-valued
float into an ``int`` and any other float into the Fraction of its
shortest decimal repr, so 0.1 is 1/10; a shift or conjugation by a
Fraction turns every Fraction with denominator 1 back into an ``int``.
Integer data therefore stay on ``int`` in every kernel, and sums,
comparisons and the CSR verdicts built on them involve no rounding.
Values become floats only when they are written out.

Matrices are immutable, dense, and row-major.  The kernels work on
row-adjacency lists of the finite entries.  The product walks them in i-k-j
order, and the Kleene star runs a per-source frontier relaxation on them
instead of summing powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite
from typing import Iterable, Optional, Sequence, Union

#: A finite value: an int when integral, else a Fraction.
Number = Union[int, Fraction]
Scalar = Optional[Number]

#: Additive identity of the semiring (read: minus infinity).
EPS: Scalar = None


class ShapeError(ValueError):
    """Operand dimensions do not allow the requested operation."""


class DivergenceError(ValueError):
    """A star-like series diverges because the maximum cycle mean is positive."""


def scalar_add(a: Scalar, b: Scalar) -> Scalar:
    """Tropical sum: max(a, b) with eps as neutral element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a >= b else b


def scalar_mul(a: Scalar, b: Scalar) -> Scalar:
    """Tropical product: a + b, absorbed to eps if either factor is eps."""
    if a is None or b is None:
        return None
    return a + b


def rational(num: Number, den: Number = 1) -> Number:
    """num / den exactly: an int when it is integral, else a Fraction."""
    q = Fraction(num, den)
    return q.numerator if q.denominator == 1 else q


def _coerce(value) -> Scalar:
    if value is None:
        return None
    kind = type(value)  # exact: bool cannot be subclassed
    if kind is float and value.is_integer():  # False for inf and nan
        return int(value)
    if kind is bool or not isinstance(value, (int, float, Fraction)):
        raise ShapeError(f"matrix entries must be numbers or null (eps), got {value!r}")
    try:
        finite = isfinite(value)
    except OverflowError:  # an int or Fraction beyond the float range
        finite = False
    if not finite:
        raise ShapeError(f"matrix entries must be finite, got {value!r}")
    if kind is int:
        return value
    if isinstance(value, float):
        value = float(value)
        return int(value) if value.is_integer() else Fraction(repr(value))
    return int(value) if isinstance(value, int) else rational(value)


@dataclass(frozen=True)
class MaxPlusMatrix:
    """Dense max-plus matrix; ``data[i][j] is None`` encodes an eps entry."""

    rows: int
    cols: int
    data: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        if self.rows <= 0 or self.cols <= 0:
            raise ShapeError(f"matrix dimensions must be positive, got {self.rows}x{self.cols}")
        if len(self.data) != self.rows or any(len(r) != self.cols for r in self.data):
            raise ShapeError(f"entry grid does not have shape {self.rows}x{self.cols}")

    # -- construction -------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "MaxPlusMatrix":
        grid = tuple(tuple(map(_coerce, row)) for row in rows)
        if not grid:
            raise ShapeError("matrix needs at least one row")
        return cls(len(grid), len(grid[0]), grid)

    @classmethod
    def identity(cls, n: int) -> "MaxPlusMatrix":
        return cls(n, n, tuple(tuple(0 if i == j else None for j in range(n)) for i in range(n)))

    @classmethod
    def epsilon(cls, rows: int, cols: int) -> "MaxPlusMatrix":
        return cls(rows, cols, tuple((None,) * cols for _ in range(rows)))

    # -- JSON wire format ----------------------------------------------

    @classmethod
    def from_json(cls, obj: dict) -> "MaxPlusMatrix":
        """Parse ``{"rows": n, "cols": m, "entries": [[...]]}`` (null = eps)."""
        try:
            rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
        except (TypeError, KeyError) as exc:
            raise ShapeError(f"matrix object must carry rows/cols/entries: {exc}") from exc
        for name, size in (("rows", rows), ("cols", cols)):
            if not (type(size) is int or (type(size) is float and size.is_integer())):
                raise ShapeError(f"matrix {name} must be an integer, got {size!r}")
        mat = cls.from_rows(entries)
        if mat.rows != rows or mat.cols != cols:
            raise ShapeError(
                f"declared shape {rows}x{cols} does not match entry grid {mat.rows}x{mat.cols}"
            )
        return mat

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [list(row) for row in self.data],
        }

    # -- basic queries -------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Scalar:
        return self.data[i][j]

    def support(self) -> frozenset[tuple[int, int]]:
        """Positions of the finite entries."""
        return frozenset(
            (i, j) for i in range(self.rows) for j in range(self.cols) if self.data[i][j] is not None
        )

    def le(self, other: "MaxPlusMatrix") -> bool:
        """Entrywise order; eps is below every finite value."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("entrywise comparison needs equal shapes")
        for r, s in zip(self.data, other.data):
            for a, b in zip(r, s):
                if a is None:
                    continue
                if b is None or a > b:
                    return False
        return True

    # -- entrywise rebuilds ---------------------------------------------

    def shift(self, delta: Number) -> "MaxPlusMatrix":
        """Add ``delta`` to every finite entry (tropical scaling by a scalar)."""
        data = tuple(tuple(None if v is None else v + delta for v in row) for row in self.data)
        return MaxPlusMatrix(self.rows, self.cols, _integral(data) if type(delta) is Fraction else data)

    def diagonal_similarity(self, x: Sequence[Number]) -> "MaxPlusMatrix":
        """Conjugate by diag(x): entry (i, j) becomes a_ij - x_i + x_j."""
        if not self.is_square or len(x) != self.rows:
            raise ShapeError("similarity vector length must match a square matrix")
        data = tuple(
            tuple(None if v is None else v - x[i] + x[j] for j, v in enumerate(row))
            for i, row in enumerate(self.data)
        )
        fractional = any(type(v) is Fraction for v in x)
        return MaxPlusMatrix(self.rows, self.cols, _integral(data) if fractional else data)

    def mask(self, keep: Iterable[int]) -> "MaxPlusMatrix":
        """Replace every row and column outside ``keep`` with eps."""
        kept = set(keep)
        return MaxPlusMatrix(
            self.rows,
            self.cols,
            tuple(
                tuple(v if i in kept and j in kept else None for j, v in enumerate(row))
                for i, row in enumerate(self.data)
            ),
        )

    def __matmul__(self, other: "MaxPlusMatrix") -> "MaxPlusMatrix":
        return mp_multiply(self, other)


def _integral(data: tuple[tuple[Scalar, ...], ...]) -> tuple[tuple[Scalar, ...], ...]:
    """``data`` with every Fraction whose denominator is 1 turned into an int."""
    return tuple(
        tuple(v.numerator if type(v) is Fraction and v.denominator == 1 else v for v in row) for row in data
    )


def finite_rows(m: MaxPlusMatrix) -> list[list[tuple[int, Number]]]:
    """Row-adjacency lists: the finite entries of each row as (column, value)."""
    return [[(j, v) for j, v in enumerate(row) if v is not None] for row in m.data]


def row_product(
    row: Sequence[Scalar], b_rows: Sequence[Sequence[tuple[int, Number]]], cols: int
) -> list[Scalar]:
    """One row of a tropical product, ``row (x) b``, with ``b`` given as its ``finite_rows``.

    Each output entry sees its candidates ``row[k] + b[k][j]`` in ascending
    k and keeps the first maximum, as the dense i-j-k loop does.
    """
    out: list[Scalar] = [None] * cols
    for k, x in enumerate(row):
        if x is None:
            continue
        for j, y in b_rows[k]:
            s = x + y
            best = out[j]
            if best is None or s > best:
                out[j] = s
    return out


def mp_multiply(a: MaxPlusMatrix, b: MaxPlusMatrix) -> MaxPlusMatrix:
    """Tropical matrix product: out[i][j] = max_k (a[i][k] + b[k][j]).

    Row-sparse in i-k-j order: eps entries of ``a`` are skipped and only
    the finite entries of each row of ``b`` are walked.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    b_rows = finite_rows(b)
    out = tuple(tuple(row_product(row, b_rows, b.cols)) for row in a.data)
    return MaxPlusMatrix(a.rows, b.cols, out)


def mp_power(a: MaxPlusMatrix, k: int) -> MaxPlusMatrix:
    """k-fold tropical product of a square matrix; the 0th power is diag(0)."""
    if not a.is_square:
        raise ShapeError(f"powers need a square matrix, got {a.rows}x{a.cols}")
    if k < 0:
        raise ValueError(f"exponent must be nonnegative, got {k}")
    result = MaxPlusMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = mp_multiply(result, base)
        k >>= 1
        if k:
            base = mp_multiply(base, base)
    return result


def _common_shape(mats: Sequence[MaxPlusMatrix], what: str) -> MaxPlusMatrix:
    """First member of a nonempty family of equal-shape matrices."""
    if not mats:
        raise ShapeError(f"{what} of an empty family is undefined")
    first = mats[0]
    if any((m.rows, m.cols) != (first.rows, first.cols) for m in mats):
        raise ShapeError(f"entrywise {what} needs equal shapes")
    return first


def entrywise_sup(mats: Sequence[MaxPlusMatrix]) -> MaxPlusMatrix:
    """Entrywise tropical sum (max) of a nonempty family of equal-shape matrices."""
    first = _common_shape(mats, "supremum")
    out = []
    for i in range(first.rows):
        row = []
        for j in range(first.cols):
            best = None
            for m in mats:
                best = scalar_add(best, m.data[i][j])
            row.append(best)
        out.append(tuple(row))
    return MaxPlusMatrix(first.rows, first.cols, tuple(out))


def entrywise_inf(mats: Sequence[MaxPlusMatrix]) -> MaxPlusMatrix:
    """Entrywise infimum; an eps entry in any member makes the infimum eps."""
    first = _common_shape(mats, "infimum")
    out = []
    for i in range(first.rows):
        row = []
        for j in range(first.cols):
            vals = [m.data[i][j] for m in mats]
            row.append(None if any(v is None for v in vals) else min(vals))
        out.append(tuple(row))
    return MaxPlusMatrix(first.rows, first.cols, tuple(out))


def kleene_star(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """I (+) a (+) a^2 (+) ... , truncated exactly at the (n-1)th power.

    Requires a nonpositive maximum cycle mean; then optimal walks shed their
    cycles, so walks of length at most n-1 realise every star entry.  Raises
    ``DivergenceError`` when Karp's cycle mean is positive.
    """
    if not a.is_square:
        raise ShapeError("star needs a square matrix")
    # Local import: the cycle-mean routine lives with the digraph analytics,
    # which builds on this module.
    from .digraph import max_cycle_mean

    lam = max_cycle_mean(a)
    if lam is not None and lam > 0:
        raise DivergenceError(f"maximum cycle mean {lam} is positive; the star series diverges")
    return _star(a)


def _star(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """The star of a square matrix whose cycle mean the caller knows is nonpositive.

    Each row is a frontier relaxation from its source on the row-adjacency
    lists of ``a``: round r extends, by one edge, only the nodes whose value
    improved in round r-1, using their values from the end of that round.
    After round r a node therefore holds the best walk of length at most r,
    so the n-1 round cap (with an early stop once nothing improves) keeps
    the truncation of the power series.
    """
    n = a.rows
    adjacency = finite_rows(a)
    out = []
    for source in range(n):
        best: list[Scalar] = [None] * n
        best[source] = 0
        frontier = [(source, 0)]
        for _ in range(n - 1):
            improved: dict[int, None] = {}
            for x, bx in frontier:
                for j, w in adjacency[x]:
                    s = bx + w
                    cur = best[j]
                    if cur is None or s > cur:
                        best[j] = s
                        improved[j] = None
            if not improved:
                break
            frontier = [(j, best[j]) for j in improved]
        out.append(tuple(best))
    return MaxPlusMatrix(n, n, tuple(out))


def metric_matrix(a: MaxPlusMatrix) -> MaxPlusMatrix:
    """a (+) a^2 (+) ... : optimal weights of nonempty walks between all pairs."""
    return mp_multiply(a, kleene_star(a))


def matrices_equal(a: MaxPlusMatrix, b: MaxPlusMatrix) -> bool:
    return (a.rows, a.cols) == (b.rows, b.cols) and a.data == b.data
