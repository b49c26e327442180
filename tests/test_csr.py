import random

import pytest

from mpcsr import demo
from mpcsr.counterexamples import FAMILY_IDS, build_family
from mpcsr.csr import (
    csr_critical_projections,
    csr_product,
    csr_terms,
    is_csr,
    periodicity_threshold,
    rank_compress,
    structure_matrix,
)
from mpcsr.ensemble import build_ensemble
from mpcsr.semiring import MaxPlusMatrix, matrices_equal, mp_multiply, mp_power
from mpcsr.trellis import Word
from mpcsr.bounds import wielandt

from oracles import (
    bench_module,
    random_p0_ensemble,
    random_visualised_ensemble,
    random_word,
    s_power_csr_product,
    s_power_csr_terms,
    s_power_direct_form,
    s_power_projections,
    s_power_rank_factors,
    symmetric_trellis_matrix,
    tropical_factor_rank,
)

E = None


def mat(rows):
    return MaxPlusMatrix.from_rows(rows)


# -- periodicity threshold ---------------------------------------------------


def test_threshold_single_loop():
    s = structure_matrix(3, [(1, 1)])
    assert periodicity_threshold(s, 1) == 1


def test_threshold_two_cycle():
    s = structure_matrix(2, [(0, 1), (1, 0)])
    assert periodicity_threshold(s, 2) == 1


def test_threshold_demo_structure():
    from mpcsr import demo

    ens = demo.ensemble()
    s = structure_matrix(8, sorted(ens.critical.critical_edges))
    t = periodicity_threshold(s, 2)
    assert t <= wielandt(4) + 2
    assert matrices_equal(mp_power(s, t), mp_power(s, t + 2))


def test_component_thresholds_computed_once_per_ensemble(monkeypatch):
    # The transients depend only on the critical graph: one search per
    # component, however many words are checked on the ensemble.
    import mpcsr.csr

    calls = []

    def counting(s, gamma):
        calls.append(gamma)
        return periodicity_threshold(s, gamma)

    monkeypatch.setattr(mpcsr.csr, "periodicity_threshold", counting)
    for family_id, components in (("P3_four", 3), ("P2_six", 1)):
        calls.clear()
        ens = build_family(family_id).ensemble()
        for t in range(1, 5):
            is_csr(ens, Word((1,) * t + (2,)))
        assert len(calls) == ens.critical.component_count == components


def test_check_on_a_memo_hit_builds_the_csr_product_only_when_read(monkeypatch):
    # is_csr and rank_compress read the memoised product and its class
    # maxima; only the first read of CsrCheck.csr multiplies.
    import mpcsr.csr
    import mpcsr.semiring
    import mpcsr.trellis

    counts = {"mp_multiply": 0, "row_product": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            counts[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counting(mpcsr.csr, "mp_multiply")
    counting(mpcsr.semiring, "row_product")
    counting(mpcsr.trellis, "row_product")
    fam = build_family("P2_six")
    for ens, word, equal in (
        (demo.ensemble(), demo.WORD, True),
        (fam.ensemble(), Word((1,) * 40 + (2,)), False),
    ):
        is_csr(ens, word)  # fills the product memo and the component thresholds
        counts.update(mp_multiply=0, row_product=0)
        check = is_csr(ens, word)
        rank_compress(check.terms)
        assert check.equal is equal
        assert counts == {"mp_multiply": 0, "row_product": 0}
        csr = check.csr
        assert counts["mp_multiply"] == 1
        assert check.csr is csr
        assert counts["mp_multiply"] == 1


def test_threshold_rejects_wrong_period():
    s = structure_matrix(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError):
        periodicity_threshold(s, 2)


# -- terms and products --------------------------------------------------------


def test_demo_terms_have_duplicate_class_columns():
    from mpcsr import demo

    ens = demo.ensemble()
    terms = s_power_csr_terms(ens, demo.WORD)
    assert terms.gamma == 2
    assert terms.k % terms.gamma == 0  # the middle factor degenerates to diag(0)
    c = terms.c_global
    for i in range(8):
        assert c.data[i][2] == c.data[i][0]
        assert c.data[i][3] == c.data[i][1]
        assert all(c.data[i][j] is None for j in range(4, 8))
    r = terms.r_global
    assert r.data[2] == r.data[0]
    assert r.data[3] == r.data[1]


def test_demo_word_is_csr():
    from mpcsr import demo

    check = is_csr(demo.ensemble(), demo.WORD)
    assert check.equal
    assert check.witness is None
    assert matrices_equal(check.csr, check.product)


def test_single_loop_terms_extract_critical_column():
    # With one critical loop the boundary factor is the critical column of
    # the product, broadcast by the (idempotent) structure matrix.
    a = mat([
        [0, -2, E],
        [E, E, -1],
        [-3, E, E],
    ])
    ens = build_ensemble([a])
    assert ens.critical.global_cyclicity == 1
    word = Word((1, 1, 1))
    terms = s_power_csr_terms(ens, word)
    crit = sorted(ens.critical_nodes)
    assert crit == [0]
    for i in range(3):
        assert terms.c_global.data[i][0] == terms.product.data[i][0]
        assert terms.c_global.data[i][1] is None and terms.c_global.data[i][2] is None


def test_two_cycle_family_witnesses():
    fam = build_family("P1_six")
    ens = fam.ensemble()
    check = is_csr(ens, Word((1,) * 20 + (2,)))
    assert not check.equal
    assert check.csr.data[5][4] == -302.0
    assert check.product.data[5][4] == -401.0


def test_three_loop_family_witness():
    fam = build_family("P3_four")
    check = is_csr(fam.ensemble(), Word((1,) * 10 + (2,)))
    assert not check.equal
    assert check.product.data[0][2] == -101.0
    assert check.csr.data[0][2] == -2.0


def test_cycle_in_slower_ambient_witness_is_first_difference():
    fam = build_family("P2_six")
    check = is_csr(fam.ensemble(), Word((1,) * 40 + (2,)))
    assert not check.equal
    assert check.witness == (0, 4)
    assert check.product_value == -301.0
    assert check.csr_value == -202.0


def test_csr_product_stable_under_larger_exponent():
    # Any exponent past the periodicity threshold gives the same product.
    from mpcsr import demo

    ens = demo.ensemble()
    base = csr_product(csr_terms(ens, demo.WORD))
    terms = s_power_csr_terms(ens, demo.WORD)
    for extra in (1, 2, 3):
        bumped = mp_multiply(
            mp_multiply(
                terms.product,
                mp_power(terms.s_global, terms.v_exponent + extra * terms.gamma),
            ),
            terms.product,
        )
        assert matrices_equal(bumped, base)


def test_csr_single_letter_words_match_direct_form():
    rng = random.Random(20)
    for _ in range(25):
        ens = random_visualised_ensemble(rng, n_max=3, lo=-6)
        word = Word((1,))
        terms = s_power_csr_terms(ens, word)
        direct = mp_multiply(
            mp_multiply(terms.product, mp_power(terms.s_global, terms.v_exponent)),
            terms.product,
        )
        check = is_csr(ens, word)
        assert check.equal == matrices_equal(terms.product, direct)


def test_csr_matches_symmetric_trellis_oracle():
    rng = random.Random(90)
    for _ in range(25):
        ens = random_visualised_ensemble(rng, n_max=4, lo=-6)
        word = random_word(rng, ens, rng.randint(1, 4))
        terms = csr_terms(ens, word)
        got = csr_product(terms)
        oracle = symmetric_trellis_matrix(ens, word.letters, terms.v_exponent)
        assert oracle == [list(r) for r in got.data]


# -- rank compression -----------------------------------------------------------


def test_demo_rank_factors():
    from mpcsr import demo

    ens = demo.ensemble()
    factors = rank_compress(csr_terms(ens, demo.WORD))
    assert factors.rank_bound == 2
    assert factors.representatives == ((0, 1),)
    live_cols = [
        j
        for j in range(8)
        if any(factors.c_prime.data[i][j] is not None for i in range(8))
    ]
    assert live_cols == [0, 1]


def test_single_loop_rank_one():
    a = mat([
        [0, -2, E],
        [E, E, -1],
        [-3, E, E],
    ])
    ens = build_ensemble([a])
    factors = rank_compress(csr_terms(ens, Word((1, 1))))
    assert factors.rank_bound == 1
    grid = [list(r) for r in mp_multiply(factors.c_prime, factors.r_prime).data]
    assert tropical_factor_rank(grid) == 1


def test_three_loops_rank_three():
    fam = build_family("P3_four")
    factors = rank_compress(csr_terms(fam.ensemble(), Word((1,) * 10 + (2,))))
    assert factors.rank_bound == 3


def test_rank_oracle_bounds_small_products():
    rng = random.Random(140)
    for _ in range(12):
        ens = random_visualised_ensemble(rng, n_max=3, lo=-5)
        word = random_word(rng, ens, rng.randint(1, 4))
        factors = rank_compress(csr_terms(ens, word))
        grid = [list(r) for r in csr_product(csr_terms(ens, word)).data]
        rank = tropical_factor_rank(grid)
        assert rank is not None and rank <= factors.rank_bound


def test_rank_oracle_self_check():
    assert tropical_factor_rank([[0.0, 0.0], [0.0, 0.0]]) == 1
    assert tropical_factor_rank([[0.0, None], [None, 0.0]]) == 2
    assert tropical_factor_rank([[None]]) == 0
    assert (
        tropical_factor_rank(
            [[0.0, None, None], [None, 0.0, None], [None, None, 0.0]]
        )
        == 3
    )
    # Rank-2 matrix: max of two outer products.
    assert tropical_factor_rank([[0.0, -1.0], [-1.0, 0.0]]) == 2


# -- projections ------------------------------------------------------------------


def test_demo_projections_hold():
    from mpcsr import demo

    ens = demo.ensemble()
    report = csr_critical_projections(csr_terms(ens, demo.WORD))
    assert report.all_ok
    # Spot check one critical column directly.
    terms = s_power_csr_terms(ens, demo.WORD)
    cs = mp_multiply(terms.c_global, mp_power(terms.s_global, terms.k % terms.gamma))
    full = mp_multiply(cs, terms.r_global)
    for i in range(8):
        assert full.data[i][0] == cs.data[i][0]


# -- referee: the S-power construction --------------------------------------------


def _demo_variant(transform):
    return build_ensemble([
        MaxPlusMatrix.from_rows([[x if x is None else transform(x) for x in row] for row in g.data])
        for g in demo.generators()
    ])


def _referee_cases(case_set):
    rng = random.Random(606)
    if case_set == "demo":
        yield demo.ensemble(), demo.WORD
    elif case_set == "families":
        for family_id in FAMILY_IDS:
            fam = build_family(family_id)
            ens = fam.ensemble()
            for cls in fam.word_classes:
                for t in range(cls.t_min, cls.t_min + 15):
                    yield ens, cls.word(t)
    elif case_set == "visualised":
        for _ in range(300):
            ens = random_visualised_ensemble(rng, n_max=6)
            yield ens, random_word(rng, ens, rng.randint(1, 10))
    elif case_set == "p0":
        for _ in range(100):
            ens = random_p0_ensemble(rng, n_max=6)
            yield ens, random_word(rng, ens, rng.randint(1, 12))
    elif case_set == "gen_n24":
        gen = bench_module("gen")
        for gamma, density in ((1, 0.15), (2, 0.5), (3, 0.15), (4, 0.5), (2, 0.15), (3, 0.5)):
            gens = gen.p0_generators(rng, 24, gamma, density)
            ens = build_ensemble([MaxPlusMatrix.from_rows(g) for g in gens])
            for length in (1, 7, 30):
                yield ens, random_word(rng, ens, length)
    else:
        for transform in (
            lambda x: x * 0.1,
            lambda x: x * 0.3,
            lambda x: x * (1 / 3),
            lambda x: x * 1e-7,
            lambda x: x + 0.1,
        ):
            ens = _demo_variant(transform)
            yield ens, demo.WORD
            yield ens, random_word(rng, ens, rng.randint(1, 30))


@pytest.mark.parametrize(
    "case_set", ["demo", "families", "visualised", "p0", "gen_n24", "demo_variants"]
)
def test_class_maxima_match_s_power_referee(case_set):
    cases = 0
    for ens, word in _referee_cases(case_set):
        terms = csr_terms(ens, word)
        ref = s_power_csr_terms(ens, word)
        for field in ("gamma_nu", "threshold", "thresholds_nu", "t_exponent", "v_exponent"):
            assert getattr(terms, field) == getattr(ref, field), field
        assert terms.product.data == ref.product.data
        # One exponent serves every component: v = -k modulo gamma_nu, past T_nu.
        k, v = terms.k, terms.v_exponent
        for g_nu, t_nu_threshold in zip(terms.gamma_nu, terms.thresholds_nu):
            t_nu = (v + (k % g_nu)) // g_nu - 1
            assert (t_nu + 1) * g_nu - (k % g_nu) == v and t_nu * g_nu >= t_nu_threshold
        csr = csr_product(terms)
        ref_csr = s_power_csr_product(ref)
        assert csr.data == ref_csr.data
        assert csr.data == s_power_direct_form(ref).data
        # is_csr reports the first difference between the product and the
        # referee's CSR product, and builds that CSR product on demand.
        check = is_csr(ens, word)
        n = ens.size
        first = next(
            ((i, j) for i in range(n) for j in range(n) if ref.product.data[i][j] != ref_csr.data[i][j]),
            None,
        )
        assert (check.equal, check.witness) == (first is None, first)
        if first is None:
            assert (check.product_value, check.csr_value) == (None, None)
        else:
            i, j = first
            assert (check.product_value, check.csr_value) == (ref.product.data[i][j], ref_csr.data[i][j])
        assert check.csr == ref_csr
        factors = rank_compress(terms)
        c_prime, r_prime, representatives = s_power_rank_factors(ref)
        assert factors.c_prime.data == c_prime.data
        assert factors.r_prime.data == r_prime.data
        assert factors.representatives == representatives
        report = csr_critical_projections(terms)
        assert (
            report.component_columns_ok,
            report.component_rows_ok,
            report.global_columns_ok,
            report.global_rows_ok,
        ) == s_power_projections(ref)
        cases += 1
    assert cases > 0
