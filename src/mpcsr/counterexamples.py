"""Families of words whose products never acquire CSR structure.

Each family pairs two generators with word classes of unbounded length,
one class per residue of the critical cyclicity, such that every product
built from a class differs from its CSR form at designated witness
entries.  Together the classes cover all lengths beyond a small start, so
no exactness threshold phrased in terms of the supremum and infimum
matrices can exist for these ensembles.

Family profiles (see the ensemble report):
  P1_six   - primitive ambient digraph, critical two-cycle (cyclicity 2);
  P1_three - primitive ambient digraph, critical three-cycle (cyclicity 3);
  P2_six   - ambient cyclicity 2 strictly below critical cyclicity 4;
  P3_four  - three critical loops (several critical components).

Node indices and witness positions are 0-based; word letters stay 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .csr import is_csr
from .ensemble import Ensemble, build_ensemble
from .semiring import MaxPlusMatrix, Scalar, matrices_equal
from .trellis import Word

FAMILY_IDS = ("P1_six", "P1_three", "P2_six", "P3_four")

E = None


@dataclass(frozen=True)
class Witness:
    """Pinned product and CSR values at one entry, for every t >= t_min."""

    row: int
    col: int
    product_value: float
    csr_value: float
    t_min: int = 0


@dataclass(frozen=True)
class WordClass:
    """Words (1)^(modulus*t + offset) 2 for t at least t_min."""

    label: str
    modulus: int
    offset: int
    t_min: int
    witnesses: tuple[Witness, ...]
    display: Optional[tuple[MaxPlusMatrix, MaxPlusMatrix]] = None

    def word(self, t: int) -> Word:
        if t < self.t_min:
            raise ValueError(f"class {self.label} needs t >= {self.t_min}, got {t}")
        return Word((1,) * (self.modulus * t + self.offset) + (2,))

    def length(self, t: int) -> int:
        return self.modulus * t + self.offset + 1

    def t_for_length(self, k: int) -> Optional[int]:
        """The t whose word has length k, or None when k is not covered."""
        if (k - 1 - self.offset) % self.modulus != 0:
            return None
        t = (k - 1 - self.offset) // self.modulus
        return t if t >= self.t_min else None


@dataclass(frozen=True)
class Family:
    family_id: str
    generators: tuple[MaxPlusMatrix, MaxPlusMatrix]
    word_classes: tuple[WordClass, ...]
    display_t: int
    min_guaranteed_length: int

    def ensemble(self) -> Ensemble:
        """The family's ensemble, built on the first call and kept on the instance.

        The memo sits in ``__dict__``, as ``path_weights`` keeps its own on
        the ensemble, so equality and ``repr`` ignore it.
        """
        cached = self.__dict__.get("_ensemble")
        if cached is None:
            cached = self.__dict__["_ensemble"] = build_ensemble(list(self.generators))
        return cached


def _m(rows) -> MaxPlusMatrix:
    return MaxPlusMatrix.from_rows(rows)


def build_family(family_id: str) -> Family:
    if family_id == "P1_six":
        return _p1_six()
    if family_id == "P1_three":
        return _p1_three()
    if family_id == "P2_six":
        return _p2_six()
    if family_id == "P3_four":
        return _p3_four()
    raise ValueError(f"unknown family {family_id!r}; choose one of {', '.join(FAMILY_IDS)}")


def _p1_six() -> Family:
    a1 = _m([
        [E,    0, -100,    E,    E,    E],
        [0,    E,    E,    E, -100,    E],
        [E,    E,    E, -100,    E,    E],
        [-100, E,    E,    E,    E,    E],
        [E,    E,    E,    E,    E, -100],
        [E, -100,    E,    E,    E,    E],
    ])
    a2 = _m([
        [E,    0, -100,    E,    E,    E],
        [0,    E,    E,    E,   -1,    E],
        [E,    E,    E, -100,    E,    E],
        [-1,   E,    E,    E,    E,    E],
        [E,    E,    E,    E,    E, -100],
        [E, -100,    E,    E,    E,    E],
    ])
    u = _m([
        [-201,    0, -100, -500, -301, -200],
        [   0, -300, -400, -200,   -1, -500],
        [-401, -200, -300, -700, -501, -400],
        [-100, -400, -500, -300, -101, -600],
        [-200, -500, -600, -400, -201, -700],
        [-301, -100, -200, -600, -401, -300],
    ])
    csr_u = _m([
        [-201,    0, -100, -401, -202, -200],
        [   0, -300, -400, -200,   -1, -500],
        [-401, -200, -300, -601, -402, -400],
        [-100, -400, -500, -300, -101, -600],
        [-200, -500, -600, -400, -201, -700],
        [-301, -100, -200, -501, -302, -300],
    ])
    v = _m([
        [   0, -300, -400, -200,   -1, -500],
        [-201,    0, -100, -500, -301, -200],
        [-200, -500, -600, -400, -201, -700],
        [-301, -100, -200, -600, -401, -300],
        [-401, -200, -300, -700, -501, -400],
        [-100, -400, -500, -300, -101, -600],
    ])
    csr_v = _m([
        [   0, -300, -400, -200,   -1, -500],
        [-201,    0, -100, -401, -202, -200],
        [-200, -500, -600, -400, -201, -700],
        [-301, -100, -200, -501, -302, -300],
        [-401, -200, -300, -601, -402, -400],
        [-100, -400, -500, -300, -101, -600],
    ])
    return Family(
        family_id="P1_six",
        generators=(a1, a2),
        word_classes=(
            WordClass(
                label="odd_length",
                modulus=2,
                offset=0,
                t_min=2,
                witnesses=(Witness(5, 4, -401.0, -302.0),),
                display=(u, csr_u),
            ),
            WordClass(
                label="even_length",
                modulus=2,
                offset=1,
                t_min=1,
                # No length-4 walk joins 3 to 4, so (3, 4) is eps at t = 1.
                witnesses=(
                    Witness(1, 4, -301.0, -202.0),
                    Witness(3, 4, -401.0, -302.0, t_min=2),
                ),
                display=(v, csr_v),
            ),
        ),
        display_t=10,
        min_guaranteed_length=30,
    )


def _p1_three() -> Family:
    a1 = _m([
        [E,    0,    E],
        [E, -100,    0],
        [0, -100, -100],
    ])
    a2 = _m([
        [E,    0,    E],
        [E,   -1,    0],
        [0, -100,   -1],
    ])
    m_mat = _m([
        [   0, -100,   -1],
        [-100,    0, -100],
        [-100,   -1,    0],
    ])
    csr_m = _m([
        [   0,   -2,   -1],
        [-100,    0, -100],
        [-100,   -1,    0],
    ])
    n_mat = _m([
        [-100,    0, -100],
        [-100,   -1,    0],
        [   0, -100,   -1],
    ])
    csr_n = _m([
        [-100,    0, -100],
        [-100,   -1,    0],
        [   0,   -2,   -1],
    ])
    p_mat = _m([
        [-100,   -1,    0],
        [   0, -100,   -1],
        [-100,    0, -100],
    ])
    csr_p = _m([
        [-100,   -1,    0],
        [   0,   -2,   -1],
        [-100,    0, -100],
    ])
    return Family(
        family_id="P1_three",
        generators=(a1, a2),
        word_classes=(
            WordClass(
                label="length_0_mod_3",
                modulus=3,
                offset=2,
                t_min=0,
                witnesses=(Witness(0, 1, -100.0, -2.0),),
                display=(m_mat, csr_m),
            ),
            WordClass(
                label="length_1_mod_3",
                modulus=3,
                offset=3,
                t_min=0,
                witnesses=(Witness(2, 1, -100.0, -2.0),),
                display=(n_mat, csr_n),
            ),
            WordClass(
                label="length_2_mod_3",
                modulus=3,
                offset=4,
                t_min=0,
                witnesses=(Witness(1, 1, -100.0, -2.0),),
                display=(p_mat, csr_p),
            ),
        ),
        display_t=10,
        min_guaranteed_length=5,
    )


def _p2_six() -> Family:
    a1 = _m([
        [E,    0,    E,    E,    E,    E],
        [E,    E,    0,    E,    E,    E],
        [E,    E,    E,    0, -100,    E],
        [0,    E,    E,    E,    E,    E],
        [E,    E,    E,    E,    E, -100],
        [E,    E,    E, -100,    E,    E],
    ])
    # All three bypass edges (3,5), (5,6), (6,4) cost -1 in the second
    # generator; the pinned class products below require -1 on each of them.
    a2 = _m([
        [E,    0,    E,    E,    E,    E],
        [E,    E,    0,    E,    E,    E],
        [E,    E,    E,    0,   -1,    E],
        [0,    E,    E,    E,    E,    E],
        [E,    E,    E,    E,    E,   -1],
        [E,    E,    E,   -1,    E,    E],
    ])
    l_mat = _m([
        [E,    0,    E, -201, -301,    E],
        [-300, E,    0,    E,    E, -401],
        [E, -300,    E,    0,   -1,    E],
        [0,    E, -300,    E,    E, -101],
        [-500, E, -200,    E,    E, -601],
        [E, -400,    E, -100, -101,    E],
    ])
    csr_l = _m([
        [E,    0,    E, -201, -202,    E],
        [-300, E,    0,    E,    E, -401],
        [E, -300,    E,    0,   -1,    E],
        [0,    E, -300,    E,    E, -101],
        [-500, E, -200,    E,    E, -601],
        [E, -400,    E, -100, -101,    E],
    ])
    f_mat = _m([
        [-300, E,    0,    E,    E, -401],
        [E, -300,    E,    0,   -1,    E],
        [0,    E, -300,    E,    E, -101],
        [E,    0,    E, -201, -301,    E],
        [E, -500,    E, -200, -201,    E],
        [-100, E, -400,    E,    E, -201],
    ])
    csr_f = _m([
        [-300, E,    0,    E,    E, -401],
        [E, -300,    E,    0,   -1,    E],
        [0,    E, -300,    E,    E, -101],
        [E,    0,    E, -201, -202,    E],
        [E, -500,    E, -200, -201,    E],
        [-100, E, -400,    E,    E, -201],
    ])
    return Family(
        family_id="P2_six",
        generators=(a1, a2),
        word_classes=(
            WordClass(
                label="length_1_mod_4",
                modulus=4,
                offset=0,
                t_min=2,
                witnesses=(Witness(0, 4, -301.0, -202.0),),
                display=(l_mat, csr_l),
            ),
            WordClass(
                label="length_2_mod_4",
                modulus=4,
                offset=1,
                t_min=2,
                witnesses=(Witness(3, 4, -301.0, -202.0),),
                display=(f_mat, csr_f),
            ),
            WordClass(
                label="length_3_mod_4",
                modulus=4,
                offset=2,
                t_min=2,
                witnesses=(Witness(2, 4, -301.0, -202.0), Witness(5, 4, -401.0, -302.0)),
            ),
            WordClass(
                label="length_0_mod_4",
                modulus=4,
                offset=3,
                t_min=2,
                witnesses=(Witness(1, 4, -301.0, -202.0), Witness(4, 4, -501.0, -402.0)),
            ),
        ),
        display_t=10,
        min_guaranteed_length=10,
    )


def _p3_four() -> Family:
    a1 = _m([
        [0, -100,    E,    E],
        [E,    0, -100,    E],
        [E,    E,    0, -100],
        [-100, E,    E,    E],
    ])
    a2 = _m([
        [0,   -1,    E,    E],
        [E,    0,   -1,    E],
        [E,    E,    0, -100],
        [-100, E,    E,    E],
    ])
    w_mat = _m([
        [   0,   -1, -101, -300],
        [-300,    0,   -1, -200],
        [-200, -201,    0, -100],
        [-100, -101, -201, -400],
    ])
    csr_w = _m([
        [   0,   -1,   -2, -201],
        [-201,    0,   -1, -101],
        [-200, -201,    0, -100],
        [-100, -101, -102, -301],
    ])
    return Family(
        family_id="P3_four",
        generators=(a1, a2),
        word_classes=(
            WordClass(
                label="any_length",
                modulus=1,
                offset=0,
                t_min=2,
                witnesses=(Witness(0, 2, -101.0, -2.0), Witness(3, 2, -201.0, -102.0)),
                display=(w_mat, csr_w),
            ),
        ),
        display_t=10,
        min_guaranteed_length=4,
    )


@dataclass(frozen=True)
class ClassCheck:
    label: str
    t: int
    k: int
    failed_csr: bool
    witnesses_ok: bool
    display_ok: Optional[bool]
    witness_details: tuple[tuple[int, int, Scalar, Scalar, float, float], ...]
    product: MaxPlusMatrix
    csr: MaxPlusMatrix

    @property
    def ok(self) -> bool:
        return self.failed_csr and self.witnesses_ok and self.display_ok is not False


@dataclass(frozen=True)
class FamilyReport:
    family_id: str
    checks: tuple[ClassCheck, ...]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.checks)


def verify_family(family: Family, t_values: Sequence[int]) -> FamilyReport:
    """Check, per class and per t, the designated non-CSR witnesses.

    Each admissible (class, t) builds the word, compares the product with
    its CSR form (which must differ), and pins the witness entries that
    apply at t to their expected closed-form values.  Where the class
    carries expected matrices for the display value of t, those are
    compared entrywise as well.
    """
    ensemble = family.ensemble()
    checks = []
    for cls in family.word_classes:
        for t in t_values:
            if t < cls.t_min:
                continue
            word = cls.word(t)
            result = is_csr(ensemble, word)
            details = []
            good = True
            for wit in cls.witnesses:
                if t < wit.t_min:
                    continue
                got_p = result.product.data[wit.row][wit.col]
                got_c = result.csr.data[wit.row][wit.col]
                details.append((wit.row, wit.col, got_p, got_c, wit.product_value, wit.csr_value))
                if got_p != wit.product_value or got_c != wit.csr_value:
                    good = False
            display_ok = None
            if t == family.display_t and cls.display is not None:
                display_ok = matrices_equal(result.product, cls.display[0]) and matrices_equal(
                    result.csr, cls.display[1]
                )
            checks.append(
                ClassCheck(
                    label=cls.label,
                    t=t,
                    k=cls.length(t),
                    failed_csr=not result.equal,
                    witnesses_ok=good,
                    display_ok=display_ok,
                    witness_details=tuple(details),
                    product=result.product,
                    csr=result.csr,
                )
            )
    return FamilyReport(family_id=family.family_id, checks=tuple(checks))


@dataclass(frozen=True)
class ScanReport:
    family_id: str
    start: int
    k_max: int
    covered: tuple[tuple[int, str, int, bool], ...]

    @property
    def all_covered(self) -> bool:
        return all(ok for _, _, _, ok in self.covered)


def transient_nonexistence_scan(family: Family, k_max: int) -> ScanReport:
    """Confirm that every admissible length up to k_max has a failing word.

    Scans k from the family's guaranteed start; for each k it picks the
    class covering that length with its smallest admissible t and requires
    the resulting product to differ from its CSR form.  Unbounded coverage
    is what rules out any exactness threshold for the family.
    """
    ensemble = family.ensemble()
    rows = []
    for k in range(family.min_guaranteed_length, k_max + 1):
        hit = None
        for cls in family.word_classes:
            t = cls.t_for_length(k)
            if t is not None:
                hit = (cls, t)
                break
        if hit is None:
            rows.append((k, "<uncovered>", -1, False))
            continue
        cls, t = hit
        result = is_csr(ensemble, cls.word(t))
        rows.append((k, cls.label, t, not result.equal))
    return ScanReport(
        family_id=family.family_id,
        start=family.min_guaranteed_length,
        k_max=k_max,
        covered=tuple(rows),
    )
