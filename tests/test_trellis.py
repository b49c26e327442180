import math
import random
from decimal import Decimal

import pytest

from mpcsr import demo, trellis
from mpcsr.counterexamples import FAMILY_IDS, build_family
from mpcsr.csr import is_csr
from mpcsr.ensemble import build_ensemble
from mpcsr.semiring import MaxPlusMatrix, matrices_equal
from mpcsr.trellis import (
    Word,
    first_passage_data,
    first_passage_weights,
    gamma_product,
    optimal_walk_lengths,
)

from oracles import (
    bench_module,
    best_walk_matrix,
    dense_multiply,
    enumerate_first_passage,
    mirrored_first_passage_data,
    random_matrix,
    random_p0_ensemble,
    random_visualised_ensemble,
    random_word,
)

E = None


def test_word_validation():
    with pytest.raises(ValueError):
        Word(())
    with pytest.raises(ValueError):
        Word((0, 1))
    assert Word.parse("5,5,1").letters == (5, 5, 1)
    fam = build_family("P3_four")
    with pytest.raises(IndexError):
        Word((3,)).validate(fam.ensemble())


def test_single_letter_product_is_that_generator():
    fam = build_family("P3_four")
    ens = fam.ensemble()
    assert matrices_equal(gamma_product(ens, Word((2,))), ens.normalized[1])


def test_demo_word_product_matches_pinned():
    from mpcsr import demo

    prod = gamma_product(demo.ensemble(), demo.WORD)
    assert matrices_equal(prod, demo.EXPECTED_PRODUCT)
    assert prod.data[6][0] == -11.0


def test_two_cycle_family_word_entry():
    fam = build_family("P1_six")
    word = Word((1,) * 20 + (2,))
    prod = gamma_product(fam.ensemble(), word)
    assert prod.data[5][4] == -401.0
    assert matrices_equal(prod, fam.word_classes[0].display[0])


def test_product_equals_walk_enumeration():
    rng = random.Random(13)
    for _ in range(30):
        ens = random_visualised_ensemble(rng, n_max=4, lo=-9)
        k = rng.randint(1, 5)
        word = random_word(rng, ens, k)
        grids = [ens.normalized[l - 1].data for l in word.letters]
        assert best_walk_matrix(grids) == [list(r) for r in gamma_product(ens, word).data]


def test_first_passage_zero_at_critical_nodes():
    from mpcsr import demo

    tw = first_passage_weights(demo.ensemble(), demo.WORD)
    for c in (0, 1, 2, 3):
        assert tw.w_star[c] == 0.0
        assert tw.v_star[c] == 0.0


def test_demo_word_first_passage_values():
    from mpcsr import demo

    tw = first_passage_weights(demo.ensemble(), demo.WORD)
    assert tw.w_star == (0.0, 0.0, 0.0, 0.0, -19.0, -31.0, -11.0, -1.0)
    assert tw.v_star == (0.0, 0.0, 0.0, 0.0, -28.0, -16.0, -11.0, -21.0)
    # The word's first-passage weights dominate the infimum path weights.
    assert all(tw.w_star[i] >= demo.EXPECTED_W[i] for i in range(8))
    assert tw.w_star[4] >= -19.0


def test_first_passage_matches_enumeration():
    rng = random.Random(31)
    for _ in range(40):
        ens = random_visualised_ensemble(rng, n_max=5, lo=-9)
        word = random_word(rng, ens, rng.randint(1, 6))
        w_star, _, v_star, _ = first_passage_data(ens, word)
        ew, ev = enumerate_first_passage(ens, word.letters)
        assert list(w_star) == ew
        assert list(v_star) == ev


def test_first_passage_is_column_and_row_optimum_of_product():
    # With zero-weight critical edges and nonpositive entries everywhere,
    # the best full walk into the critical set equals the best first-passage
    # walk padded by a free critical tail; so the product's critical column
    # maxima recover the first-passage vector, and rows symmetrically.
    from mpcsr import demo

    rng = random.Random(47)
    for ens in (demo.ensemble(), build_family("P1_six").ensemble()):
        crit = sorted(ens.critical_nodes)
        for _ in range(10):
            word = random_word(rng, ens, rng.randint(1, 14))
            prod = gamma_product(ens, word)
            w_star, _, v_star, _ = first_passage_data(ens, word)
            for i in range(ens.size):
                vals = [prod.data[i][c] for c in crit if prod.data[i][c] is not None]
                assert w_star[i] == (max(vals) if vals else None)
            for j in range(ens.size):
                vals = [prod.data[c][j] for c in crit if prod.data[c][j] is not None]
                assert v_star[j] == (max(vals) if vals else None)


def test_first_passage_never_decreases_under_extension():
    # Appending letters can only help initial walks (their stages are a
    # prefix); prepending can only help final walks (their stages a suffix).
    from mpcsr import demo

    ens = demo.ensemble()
    rng = random.Random(8)
    letters = tuple(rng.randint(1, 5) for _ in range(16))
    prev_w = [None] * ens.size
    prev_v = [None] * ens.size
    for k in range(1, len(letters) + 1):
        w_star, _, _, _ = first_passage_data(ens, Word(letters[:k]))
        _, _, v_star, _ = first_passage_data(ens, Word(letters[-k:]))
        for i in range(ens.size):
            if prev_w[i] is not None:
                assert w_star[i] is not None and w_star[i] >= prev_w[i]
            if prev_v[i] is not None:
                assert v_star[i] is not None and v_star[i] >= prev_v[i]
        prev_w, prev_v = list(w_star), list(v_star)


def test_walk_length_report_on_demo():
    from mpcsr import demo

    ens = demo.ensemble()
    rep = optimal_walk_lengths(ens, demo.WORD)
    assert rep.lambda_star == pytest.approx(-4.5)
    for c in (0, 1, 2, 3):
        assert rep.w_lengths[c] == 0
        assert rep.w_bounds[c] == pytest.approx(4.0)  # noncritical node count
    for length, bound in zip(rep.w_lengths + rep.v_lengths, rep.w_bounds + rep.v_bounds):
        assert length is not None and bound is not None
        assert length <= bound + 1e-9


def test_walk_length_caps_when_no_noncritical_cycle():
    ens = build_family("P1_six").ensemble()
    rep = optimal_walk_lengths(ens, Word((1,) * 8 + (2,)))
    assert rep.lambda_star is None
    slack = ens.size - len(ens.critical_nodes)
    assert all(b == slack for b in rep.w_bounds if b is not None)
    assert all(
        l <= slack for l in rep.w_lengths + rep.v_lengths if l is not None
    )


def test_walk_length_rejects_nonnegative_lambda_star():
    # Built ensembles always end up with a negative or eps noncritical cycle
    # mean, so exercise the guard on a doctored copy.
    import dataclasses

    from mpcsr import demo

    ens = dataclasses.replace(demo.ensemble(), lambda_star=0.5)
    with pytest.raises(ValueError):
        optimal_walk_lengths(ens, Word((1, 1)))


# -- referee: the mirrored dense DP -----------------------------------------------

FLOAT_VARIANTS = (
    lambda x: x,
    lambda x: x * 0.1,
    lambda x: x * 0.3,
    lambda x: x * (1 / 3),
    lambda x: x * 1e-7,
    lambda x: x + 0.1,
)


def _variant(generators, transform):
    return build_ensemble([
        MaxPlusMatrix.from_rows([[x if x is None else transform(x) for x in row] for row in g.data])
        for g in generators
    ])


def _first_passage_cases(case_set):
    rng = random.Random(707)
    if case_set == "demo_variants":
        for transform in FLOAT_VARIANTS:
            ens = _variant(demo.generators(), transform)
            yield ens, demo.WORD
            for _ in range(4):
                yield ens, random_word(rng, ens, rng.randint(1, 30))
    elif case_set == "families":
        for family_id in FAMILY_IDS:
            fam = build_family(family_id)
            ens = fam.ensemble()
            for cls in fam.word_classes:
                for t in range(cls.t_min, cls.t_min + 15):
                    yield ens, cls.word(t)
    elif case_set == "visualised":
        for _ in range(200):
            ens = random_visualised_ensemble(rng, n_max=6)
            yield ens, random_word(rng, ens, rng.randint(1, 12))
    elif case_set == "p0":
        for _ in range(100):
            ens = random_p0_ensemble(rng, n_max=6)
            yield ens, random_word(rng, ens, rng.randint(1, 12))
    elif case_set == "unvisualised":
        count = 0
        while count < 60:
            n = rng.randint(2, 6)
            gens = [random_matrix(rng, n, 0.6, lo=-9, hi=9) for _ in range(rng.randint(1, 3))]
            try:
                ens = build_ensemble(gens)
            except ValueError:
                continue
            count += 1
            yield ens, random_word(rng, ens, rng.randint(1, 12))
    else:
        gen = bench_module("gen")
        for n, gamma, density in ((12, 1, 0.5), (12, 3, 0.15), (24, 2, 0.15), (24, 4, 0.5)):
            gens = [MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(rng, n, gamma, density)]
            for transform in FLOAT_VARIANTS:
                ens = _variant(gens, transform)
                for length in (1, 9, 30, 96, 200):
                    yield ens, random_word(rng, ens, length)


@pytest.mark.parametrize(
    "case_set", ["demo_variants", "families", "visualised", "p0", "unvisualised", "gen_p0"]
)
def test_first_passage_matches_mirrored_referee(case_set):
    cases = 0
    for ens, word in _first_passage_cases(case_set):
        assert first_passage_data(ens, word) == mirrored_first_passage_data(ens, word), word.letters
        cases += 1
    assert cases > 0


# -- first passage read off the product ------------------------------------------


def _count_calls(monkeypatch, name):
    """Count the calls the trellis module makes to its global ``name``."""
    calls = [0]
    original = getattr(trellis, name)

    def counting(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(trellis, name, counting)
    return calls


def _read_off_cases(case_set):
    rng = random.Random(1515)
    if case_set == "demo":
        ens = demo.ensemble()
        yield ens, demo.WORD
        for k in range(1, 41):
            yield ens, random_word(rng, ens, k)
    elif case_set == "families":
        for family_id in FAMILY_IDS:
            fam = build_family(family_id)
            ens = fam.ensemble()
            for cls in fam.word_classes:
                for t in range(cls.t_min, cls.t_min + 12):
                    yield ens, cls.word(t)
    else:
        gen = bench_module("gen")
        for n, gamma, density in ((12, 1, 0.5), (12, 3, 0.15), (24, 2, 0.15)):
            ens = build_ensemble([MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(rng, n, gamma, density)])
            for k in (1, 2, 5, 8, 9, 10, 12, 15, 20, 30, 45, 60):
                yield ens, random_word(rng, ens, k)


@pytest.mark.parametrize("case_set", ["demo", "families", "gen_p0"])
def test_first_passage_read_off_matches_both_dps(monkeypatch, case_set):
    onsets = []
    original_test = trellis.csr_mismatch

    def recording(*args):
        result = original_test(*args)
        onsets.append(result[1] is not None)
        return result

    monkeypatch.setattr(trellis, "csr_mismatch", recording)
    dp_calls = _count_calls(monkeypatch, "first_passage_data")
    cases = 0
    for ens, word in _read_off_cases(case_set):
        report = ens.assumption_report
        assert report.visualised and report.strongly_equivalent
        tw = first_passage_weights(ens, word)
        w_star, _, v_star, _ = first_passage_data(ens, word)
        ref_w, _, ref_v, _ = mirrored_first_passage_data(ens, word)
        assert tw.w_star == w_star == ref_w, word.letters
        assert tw.v_star == v_star == ref_v, word.letters
        cases += 1
    assert cases > 0
    assert dp_calls[0] == 0
    if case_set == "gen_p0":
        assert any(onsets), "no word reached the factored fold"


def test_first_passage_takes_the_dp_without_strong_equivalence(monkeypatch):
    # Without the critical edge 3 -> 0 in generator 1, node 3 has no
    # zero-weight critical step under letter 1, so a first passage ending
    # there cannot be padded to full length: the product's critical maxima
    # fall short of w*, and the DP has to run.
    rows = [[list(row) for row in g.data] for g in demo.generators()]
    rows[0][3][0] = None
    ens = build_ensemble([MaxPlusMatrix.from_rows(g) for g in rows])
    report = ens.assumption_report
    assert report.visualised and not report.strongly_equivalent
    crit = sorted(ens.critical_nodes)
    dp_calls = _count_calls(monkeypatch, "first_passage_data")
    rng = random.Random(2)
    short = 0
    for count in range(1, 51):
        word = random_word(rng, ens, rng.randint(1, 20))
        tw = first_passage_weights(ens, word)
        assert dp_calls[0] == count
        assert (tw.w_star, tw.v_star) == first_passage_data(ens, word)[::2]
        ref_w, _, ref_v, _ = mirrored_first_passage_data(ens, word)
        assert (tw.w_star, tw.v_star) == (ref_w, ref_v)
        data = tw.product.data
        read_off = tuple(max((row[c] for c in crit if row[c] is not None), default=None) for row in data)
        short += read_off != tw.w_star
    assert short > 0


# -- referee: a left fold of the dense product ---------------------------------


def dense_fold(ensemble, word):
    gens = ensemble.normalized
    result = gens[word.letters[0] - 1]
    for letter in word.letters[1:]:
        result = dense_multiply(result, gens[letter - 1])
    return result


def _product_cases(case_set):
    rng = random.Random(909)
    if case_set == "demo_variants":
        for transform in FLOAT_VARIANTS:
            ens = _variant(demo.generators(), transform)
            yield ens, demo.WORD
            for length in (1, 2, 9, 30):
                yield ens, random_word(rng, ens, length)
    elif case_set == "families":
        for family_id in FAMILY_IDS:
            fam = build_family(family_id)
            ens = fam.ensemble()
            for cls in fam.word_classes:
                for t in (cls.t_min, cls.t_min + 1, cls.t_min + 5, 10, 40):
                    yield ens, cls.word(t)
    else:
        gen = bench_module("gen")
        for n, gamma, density in ((12, 1, 0.5), (12, 3, 0.15), (24, 2, 0.15), (24, 4, 0.5)):
            gens = [MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(rng, n, gamma, density)]
            ens = build_ensemble(gens)
            for length in (1, 9, 96):
                yield ens, random_word(rng, ens, length)


@pytest.mark.parametrize("case_set", ["demo_variants", "families", "gen_p0"])
def test_product_matches_dense_fold(case_set):
    cases = 0
    for ens, word in _product_cases(case_set):
        assert gamma_product(ens, word) == dense_fold(ens, word), word.letters
        cases += 1
    assert cases > 0


# -- memos on the ensemble -----------------------------------------------------


def test_csr_check_then_first_passage_folds_the_word_once(monkeypatch):
    # The demo is visualised and strongly equivalent, so w* and v* are read
    # off the product the CSR check memoised: no row product at all.
    ens = demo.ensemble()
    check = is_csr(ens, demo.WORD)
    calls = _count_calls(monkeypatch, "row_product")
    tw = first_passage_weights(ens, demo.WORD)
    assert calls[0] == 0
    assert tw.product is check.product


def test_product_memo_holds_one_word():
    ens = demo.ensemble()
    rng = random.Random(5)
    first, second = random_word(rng, ens, 12), random_word(rng, ens, 12)
    assert first != second
    hit = gamma_product(ens, first)
    assert gamma_product(ens, first) is hit
    other = gamma_product(ens, second)
    assert other == dense_fold(ens, second)
    assert other != hit
    again = gamma_product(ens, first)
    assert again == hit and again is not hit


def test_equal_words_share_the_product_memo():
    ens = demo.ensemble()
    letters = list(demo.WORD.letters)
    first = gamma_product(ens, Word(tuple(letters)))
    assert gamma_product(ens, Word.parse(",".join(map(str, letters)))) is first


def test_product_memo_ignores_an_invalid_word():
    ens = demo.ensemble()
    kept = gamma_product(ens, demo.WORD)
    with pytest.raises(IndexError):
        gamma_product(ens, Word((1, 99)))
    assert gamma_product(ens, demo.WORD) is kept


def test_ensemble_equality_and_repr_ignore_the_memos():
    fresh, used = demo.ensemble(), demo.ensemble()
    gamma_product(used, demo.WORD)
    first_passage_data(used, demo.WORD)
    assert {"_adjacency", "_last_product"} <= set(vars(used))
    assert not {"_adjacency", "_last_product"} & set(vars(fresh))
    assert used == fresh
    assert repr(used) == repr(fresh)


# -- pruned first passage --------------------------------------------------------


def _full_dp_row_products(ens, word):
    # The unpruned DP extends one row per noncritical start, per letter, per direction.
    return 2 * len(word) * (ens.size - len(ens.critical_nodes))


def test_first_passage_prunes_on_nonpositive_generators(monkeypatch):
    gen = bench_module("gen")
    rng = random.Random(31)
    ens = build_ensemble([MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(rng, 24, 2, 0.15)])
    word = random_word(rng, ens, 200)
    assert trellis._adjacency(ens)[2]
    calls = _count_calls(monkeypatch, "row_product")
    first_passage_data(ens, word)
    assert 0 < calls[0] <= _full_dp_row_products(ens, word) // 10


def test_first_passage_prunes_on_decimal_scaled_generators(monkeypatch):
    # Written as exact decimals (-0.3 for -3), the x0.1 entries are
    # Fractions, all still <= 0 after visualising, so the DP prunes exactly
    # as on the integer original.
    gen = bench_module("gen")
    rng = random.Random(31)
    gens = [MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(rng, 24, 2, 0.15)]
    counts = []
    for transform in (lambda x: x, lambda x: float(Decimal(x) * Decimal("0.1"))):
        ens = _variant(gens, transform)
        word = random_word(random.Random(3), ens, 200)
        calls = _count_calls(monkeypatch, "row_product")
        first_passage_data(ens, word)
        counts.append(calls[0])
    assert 0 < counts[1] == counts[0]


def _chain_generator(to_chain, from_chain):
    # A 0-loop at node 0, linked to a chain 1..4 with a loop at every node.
    rows = [[None] * 5 for _ in range(5)]
    rows[0][0], rows[0][1], rows[1][0] = 0.0, to_chain, from_chain
    for v in range(1, 5):
        rows[v][v] = -1.0
        if v < 4:
            rows[v][v + 1], rows[v + 1][v] = 2.0, -4.0
    return MaxPlusMatrix.from_rows(rows)


def test_first_passage_keeps_every_walk_on_a_positive_entry(monkeypatch):
    # The supremum has cycle mean 3, so the generators are left unvisualised
    # and keep their positive entries: nothing may be pruned, and the loops
    # keep every start's row finite.
    ens = build_ensemble([_chain_generator(3.0, -5.0), _chain_generator(-5.0, 3.0)])
    assert any(v is not None and v > 0 for g in ens.normalized for row in g.data for v in row)
    word = random_word(random.Random(8), ens, 50)
    calls = _count_calls(monkeypatch, "row_product")
    result = first_passage_data(ens, word)
    assert calls[0] == _full_dp_row_products(ens, word)
    assert result == mirrored_first_passage_data(ens, word)


# -- factored fold past the CSR onset ---------------------------------------------


def _csr_stream_ensemble(transform=lambda x: x):
    # The csr-stream benchmark ensemble: n = 32, gamma = 3, generator seed 0.
    gen = bench_module("gen")
    rows = gen.p0_generators(random.Random(0), 32, 3, 0.15)
    return _variant([MaxPlusMatrix.from_rows(g) for g in rows], transform)


def _prefix_folds(ensemble, letters):
    """The dense left fold of every prefix of ``letters``, shortest first."""
    gens = ensemble.normalized
    result = gens[letters[0] - 1]
    yield result
    for letter in letters[1:]:
        result = dense_multiply(result, gens[letter - 1])
        yield result


def test_factored_fold_matches_dense_fold_on_the_csr_stream_ensemble():
    ens = _csr_stream_ensemble()
    rng = random.Random(12)
    for _ in range(2):
        letters = random_word(rng, ens, 130).letters
        for k, folded in enumerate(_prefix_folds(ens, letters), start=1):
            assert gamma_product(ens, Word(letters[:k])) == folded, k


def test_factored_fold_matches_dense_fold_on_the_families():
    cases = 0
    for family_id in FAMILY_IDS:
        fam = build_family(family_id)
        ens = fam.ensemble()
        for cls in fam.word_classes:
            for t in range(cls.t_min, 61):
                word = cls.word(t)
                assert gamma_product(ens, word) == dense_fold(ens, word), (family_id, cls.label, t)
                cases += 1
    assert cases > 400


def test_factored_fold_matches_dense_fold_on_the_demo():
    ens = demo.ensemble()
    assert gamma_product(ens, demo.WORD) == demo.EXPECTED_PRODUCT
    rng = random.Random(21)
    for _ in range(3):
        letters = random_word(rng, ens, 100).letters
        for k, folded in enumerate(_prefix_folds(ens, letters), start=1):
            assert gamma_product(ens, Word(letters[:k])) == folded, k


@pytest.mark.parametrize(
    "transform", [lambda x: x * 0.1, lambda x: x + 0.1, lambda x: x * 2.0**42], ids=["times-0.1", "plus-0.1", "times-2**42"]
)
def test_factored_fold_on_scaled_data(monkeypatch, transform):
    # Decimal data are Fractions and huge integers stay exact ints, so the
    # fold switches to the factored form on them as on the original.
    ens = _csr_stream_ensemble(transform)
    letters = random_word(random.Random(4), ens, 100).letters
    calls = _count_calls(monkeypatch, "row_product")
    assert gamma_product(ens, Word(letters)) == dense_fold(ens, Word(letters))
    assert 0 < calls[0] < ens.size * (len(letters) - 1) // 2


def test_factored_fold_carries_one_row_per_critical_class(monkeypatch):
    ens = _csr_stream_ensemble()
    rng = random.Random(9)
    calls = _count_calls(monkeypatch, "row_product")
    for k in (90, 101, 130):
        word = random_word(rng, ens, k)
        calls[0] = 0
        product = gamma_product(ens, word)
        assert 0 < calls[0] <= 16 * 32 + (k - 16) * 3 + 32, k
        assert product == is_csr(ens, word).csr


def test_csr_test_takes_tuple_or_list_rows():
    # The fold hands csr_mismatch list rows and is_csr the tuple rows of
    # MaxPlusMatrix.data; both must get the same verdict and witness.
    ens = demo.ensemble()
    classes = [comp.classes() for comp in ens.critical.components]
    product = gamma_product(ens, demo.WORD)
    mismatch, factors = trellis.csr_mismatch(product.data, classes, len(demo.WORD))
    assert mismatch is None and factors is not None
    lists = [list(row) for row in product.data]
    assert trellis.csr_mismatch(lists, classes, len(demo.WORD)) == (None, factors)

    fam = build_family("P2_six")
    ens = fam.ensemble()
    classes = [comp.classes() for comp in ens.critical.components]
    word = Word((1,) * 40 + (2,))
    product = gamma_product(ens, word)
    lists = [list(row) for row in product.data]
    result = trellis.csr_mismatch(product.data, classes, len(word))
    assert result == trellis.csr_mismatch(lists, classes, len(word)) == ((0, 4, -202), None)


# -- cost of the onset schedule and of one checked word ----------------------------


def test_onset_tests_grow_by_a_quarter(monkeypatch):
    # Test lengths 8, 10, 12, 15, 18, 22, ...: a word that never reaches its
    # onset pays at most 1 + ceil(log_{5/4}(k / 8)) tests.
    lengths = []
    original = trellis.csr_mismatch

    def recording(state, classes, k):
        lengths.append(k)
        return original(state, classes, k)

    monkeypatch.setattr(trellis, "csr_mismatch", recording)
    schedule = [8]
    while schedule[-1] < 200:
        schedule.append(schedule[-1] + schedule[-1] // 4)
    assert schedule[:6] == [8, 10, 12, 15, 18, 22]
    cases = 0
    for family_id in FAMILY_IDS:
        fam = build_family(family_id)
        ens = fam.ensemble()
        for cls in fam.word_classes:
            for t in range(cls.t_min, 61):
                word = cls.word(t)
                k = len(word)
                lengths.clear()
                ens.__dict__.pop("_last_product", None)
                gamma_product(ens, word)
                assert lengths == schedule[: len(lengths)], (family_id, cls.label, t)
                bound = 1 + math.ceil(math.log(k / 8, 5 / 4)) if k > 8 else 0
                assert len(lengths) <= bound, (family_id, cls.label, t)
                cases += 1
    assert cases > 400


def test_checked_word_row_products_on_the_csr_stream_ensemble(monkeypatch):
    # One is_csr + rank_compress + first_passage_weights pass, as a
    # csr-stream op runs it: one fold, and w*, v* read off its product.
    from mpcsr import ambient_csr_bound, rank_compress

    gen = bench_module("gen")
    ens = _csr_stream_ensemble()
    ambient_k = ambient_csr_bound(ens).ambient_k
    rng = random.Random(1)
    words = [Word(gen.random_word(rng, ens.generator_count(), ambient_k + rng.randrange(6))) for _ in range(8)]
    calls = _count_calls(monkeypatch, "row_product")
    for word in words:
        calls[0] = 0
        check = is_csr(ens, word)
        rank_compress(check.terms)
        first_passage_weights(ens, word)
        assert check.equal
        assert 0 < calls[0] <= 650, len(word)
