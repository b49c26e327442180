import dataclasses
import itertools
import random

import pytest

from mpcsr.bounds import (
    AssumptionError,
    ambient_csr_bound,
    schwarz,
    turnpike_value_check,
    weak_csr_bound,
    wielandt,
)
from mpcsr.counterexamples import build_family
from mpcsr.csr import is_csr
from mpcsr.ensemble import build_ensemble
from mpcsr.semiring import MaxPlusMatrix
from mpcsr.trellis import Word

from oracles import (
    bench_module,
    dense_multiply,
    full_scan_weak_csr_bound,
    random_visualised_ensemble,
    random_word,
)

E = None


def test_wielandt_values():
    assert wielandt(0) == 0
    assert wielandt(1) == 1
    assert wielandt(2) == 2
    assert wielandt(4) == 10
    with pytest.raises(ValueError):
        wielandt(-1)


def test_schwarz_values():
    for n in range(0, 9):
        assert schwarz(1, n) == wielandt(n)
    assert schwarz(2, 4) == 4
    assert schwarz(3, 3) == 3
    assert schwarz(2, 5) == 2 * wielandt(2) + 1
    with pytest.raises(ValueError):
        schwarz(0, 3)


# -- weak threshold -----------------------------------------------------------


def test_weak_bound_vacuous_when_critical_unavoidable():
    # Every node of this family is critical, so no critical-avoiding pair
    # exists and length one already suffices for the upper bound.
    ens = build_family("P1_three").ensemble()
    res = weak_csr_bound(ens, 50)
    assert res.k == 1
    assert res.finite_pairs == 0


def test_weak_bound_on_demo_and_soundness():
    from mpcsr import demo

    ens = demo.ensemble()
    res = weak_csr_bound(ens, 200)
    # The per-length condition oscillates with the parity of the length on
    # this dataset: length 16 passes in isolation but 17 and 19 fail, so the
    # certified window only opens at 20.
    assert res.first_k == 16
    assert res.k == 20
    assert res.k > res.threshold_at_k
    rng = random.Random(17)
    for _ in range(100):
        word = random_word(rng, ens, res.k)
        check = is_csr(ens, word)
        assert check.product.le(check.csr)


def test_weak_bound_acyclic_noncritical_part():
    # No noncritical cycles at all: the scan degenerates to the node-count
    # threshold.
    ens = build_family("P1_six").ensemble()
    assert ens.lambda_star is None
    res = weak_csr_bound(ens, 50)
    assert res.finite_pairs > 0
    assert res.k == ens.size - len(ens.critical_nodes) + 1 == 5


def test_weak_bound_dominates_but_equality_still_fails():
    # Upper bound only: the three-loop family is dominated by its CSR form
    # at every length, yet never equals it.
    fam = build_family("P3_four")
    ens = fam.ensemble()
    res = weak_csr_bound(ens, 50)
    assert res.k == 1 and res.finite_pairs == 0
    for t in (2, 5, 9):
        check = is_csr(ens, Word((1,) * t + (2,)))
        assert check.product.le(check.csr)
        assert not check.equal


def test_weak_bound_rejects_nonnegative_lambda_star():
    import dataclasses

    from mpcsr import demo

    ens = dataclasses.replace(demo.ensemble(), lambda_star=0.0)
    with pytest.raises(AssumptionError):
        weak_csr_bound(ens, 10)


def test_weak_bound_exhaustion_reports_none():
    from mpcsr import demo

    res = weak_csr_bound(demo.ensemble(), 2)
    assert res.k is None
    assert res.diagnostics


# -- early stop against the full scan ---------------------------------------------

DEMO_VARIANTS = {
    "demo": lambda x: x,
    "x0.1": lambda x: x * 0.1,
    "x0.3": lambda x: x * 0.3,
    "x1/3": lambda x: x * (1 / 3),
    "x1e-7": lambda x: x * 1e-7,
    "+0.1": lambda x: x + 0.1,
}


def _demo_variant(name):
    from mpcsr import demo

    transform = DEMO_VARIANTS[name]
    return build_ensemble([
        MaxPlusMatrix.from_rows([[x if x is None else transform(x) for x in row] for row in g.data])
        for g in demo.generators()
    ])


def _weak_cases(case_set):
    if case_set == "demo_variants":
        for name in DEMO_VARIANTS:
            yield _demo_variant(name)
    elif case_set == "gen_p0":
        gen = bench_module("gen")
        rng = random.Random(5)
        for n in (12, 18, 24):
            for gamma in (1, 2, 3):
                for density in (0.15, 0.5):
                    gens = gen.p0_generators(rng, n, gamma, density)
                    yield build_ensemble([MaxPlusMatrix.from_rows(g) for g in gens])
    elif case_set == "visualised":
        rng = random.Random(808)
        for _ in range(30):
            yield random_visualised_ensemble(rng, n_max=7)
    else:
        # lambda_star is eps (P1_six), no critical-avoiding pair (P1_three,
        # P3_four), and a nonnegative lambda_star that both must reject.
        from mpcsr import demo

        for family_id in ("P1_six", "P1_three", "P2_six", "P3_four"):
            yield build_family(family_id).ensemble()
        yield dataclasses.replace(demo.ensemble(), lambda_star=0.0)


def _k_max_values(ensemble):
    # Windows ending on both sides of the repeat and of the lengths where
    # the verdict changes.
    values = {1, 2, 200}
    try:
        res = weak_csr_bound(ensemble, 200)
    except AssumptionError:
        return sorted(values)
    if res.period is not None:
        t, sigma = res.period
        values |= {t - 1, t, t + sigma - 1, t + sigma}
    for k in (res.k, res.first_k):
        if k is not None:
            values |= {k - 1, k, k + 1}
    return sorted(v for v in values if v >= 1)


@pytest.mark.parametrize("case_set", ["demo_variants", "gen_p0", "visualised", "branches"])
def test_weak_bound_matches_full_scan(case_set):
    seen = {"period": 0, "no_period": 0, "rejected": 0, "lam_none": 0, "no_pairs": 0}
    for ens in _weak_cases(case_set):
        for k_max in _k_max_values(ens):
            try:
                want = full_scan_weak_csr_bound(ens, k_max)
            except AssumptionError:
                with pytest.raises(AssumptionError):
                    weak_csr_bound(ens, k_max)
                seen["rejected"] += 1
                continue
            got = weak_csr_bound(ens, k_max)
            assert dataclasses.replace(got, period=None) == want, (case_set, k_max)
            seen["period" if got.period else "no_period"] += 1
            seen["lam_none"] += ens.lambda_star is None
            seen["no_pairs"] += got.finite_pairs == 0
    if case_set == "branches":
        assert seen["rejected"] and seen["lam_none"] and seen["no_pairs"]
    else:
        assert seen["period"]


def _powers_until(a, k):
    powers = [a]
    while len(powers) < k:
        powers.append(dense_multiply(powers[-1], a))
    return [p.data for p in powers]


def test_weak_bound_period_witness():
    assert weak_csr_bound(_demo_variant("demo"), 200).period == (4, 2)
    # The +0.1 shift is undone exactly by the normalisation.
    assert weak_csr_bound(_demo_variant("+0.1"), 200).period == (4, 2)
    # A window that ends before the repeat shows none.
    assert weak_csr_bound(_demo_variant("demo"), 5).period is None
    assert weak_csr_bound(_demo_variant("demo"), 6).period == (4, 2)
    checked = 0
    for ens in itertools.chain(_weak_cases("demo_variants"), _weak_cases("gen_p0")):
        period = weak_csr_bound(ens, 200).period
        if period is None:
            continue
        t, sigma = period
        powers = _powers_until(ens.a_inf, t + sigma)
        # a_inf^(T+sigma) is the first power equal to an earlier one, a_inf^T.
        assert powers[t + sigma - 1] == powers[t - 1]
        assert len(set(powers[: t + sigma - 1])) == t + sigma - 1
        checked += 1
    assert checked >= 10


def test_weak_bound_past_the_period_matches_a_full_window():
    # Past the repeat each threshold recurs with period sigma, and a length
    # passes for good once it passes in its residue class, so a window far
    # beyond the scan certifies what a full scan of 300 lengths certifies.
    checked = 0
    for ens in itertools.chain(_weak_cases("demo_variants"), _weak_cases("gen_p0")):
        want = full_scan_weak_csr_bound(ens, 300)
        assert dataclasses.replace(weak_csr_bound(ens, 300), period=None) == want
        got = weak_csr_bound(ens, 10**8)
        assert got.period is not None
        assert (got.k, got.first_k, got.threshold_at_k) == (want.k, want.first_k, want.threshold_at_k)
        checked += 1
    assert checked >= 10


# -- ambient threshold -----------------------------------------------------------


def test_ambient_bound_on_demo():
    from mpcsr import demo

    rep = ambient_csr_bound(demo.ensemble())
    assert rep.profile == "P0"
    assert rep.schwarz_term == 4
    assert rep.lambda_star == pytest.approx(-4.5)
    # Entries of the connection table.
    assert rep.branch_connect[0][0] == pytest.approx(12.0)
    assert rep.branch_connect[6][4] == pytest.approx(53 / 4.5 + 12)  # prints as 23.8
    assert rep.branch_connect[6][7] == pytest.approx(64 / 4.5 + 12)  # prints as 26.2
    assert rep.branch_avoid[6][7] == pytest.approx(73 / 4.5 + 5)  # prints as 21.2
    assert rep.branch_avoid[0][0] is None
    # The threshold is the maximum over both tables.
    flat = [v for row in rep.branch_connect for v in row]
    flat += [v for row in rep.branch_avoid for v in row if v is not None]
    assert rep.bound == pytest.approx(max(flat)) == pytest.approx(26.222222222222221)
    assert rep.ambient_k == 27


def test_ambient_bound_tables_match_recorded_displays():
    from mpcsr import demo

    rep = ambient_csr_bound(demo.ensemble())
    for i in range(8):
        for j in range(8):
            assert rep.branch_connect[i][j] == pytest.approx(
                demo.RECORDED_BRANCH_CONNECT[i][j], abs=demo.TABLE_TOL
            )
            got = rep.branch_avoid[i][j]
            want = demo.RECORDED_BRANCH_AVOID[i][j]
            if want is None:
                assert got is None
            else:
                assert got == pytest.approx(want, abs=demo.TABLE_TOL)


def test_ambient_bound_rejects_other_profiles():
    for family_id in ("P1_six", "P2_six", "P3_four"):
        with pytest.raises(AssumptionError, match="profile"):
            ambient_csr_bound(build_family(family_id).ensemble())


def test_ambient_bound_monotone_in_walk_weights():
    # The connection branch grows as the infimum walk weights sink, so
    # raising them entrywise can only lower the threshold.
    import dataclasses

    from mpcsr import demo

    ens = demo.ensemble()
    base = ambient_csr_bound(ens)
    lifted = dataclasses.replace(
        ens,
        a_inf=MaxPlusMatrix.from_rows(
            [[None if v is None else v / 2 for v in row] for row in ens.a_inf.data]
        ),
    )
    higher = ambient_csr_bound(lifted)
    for i in range(8):
        for j in range(8):
            assert higher.branch_connect[i][j] <= base.branch_connect[i][j] + 1e-9


def test_ambient_bound_toy_loop_vs_exhaustive_search():
    # Two generators, single critical loop.  The threshold must be sound:
    # every word at least that long is exactly CSR; shorter all-word levels
    # are reported for comparison.
    a1 = MaxPlusMatrix.from_rows([
        [0, -2, E],
        [E, E, -1],
        [-3, E, E],
    ])
    a2 = MaxPlusMatrix.from_rows([
        [0, -1, E],
        [E, E, -4],
        [-2, E, E],
    ])
    ens = build_ensemble([a1, a2])
    assert ens.assumption_report.profile == "P0"
    rep = ambient_csr_bound(ens)
    all_csr_at = {}
    for k in range(1, rep.ambient_k + 3):
        all_csr_at[k] = all(
            is_csr(ens, Word(w)).equal for w in itertools.product((1, 2), repeat=k)
        )
    for k in range(rep.ambient_k, rep.ambient_k + 3):
        assert all_csr_at[k]
    true_transient = min(
        (k for k in all_csr_at if all(all_csr_at[j] for j in range(k, rep.ambient_k + 3))),
        default=None,
    )
    assert true_transient is not None and true_transient <= rep.ambient_k


def test_turnpike_weight_realisation():
    # Past the threshold, the best critical-touching full walk decomposes as
    # first passage in, a free critical dwell, and first passage out.
    from mpcsr.trellis import first_passage_data

    from oracles import best_critical_touching_walk, random_p0_ensemble

    rng = random.Random(55)
    for _ in range(6):
        ens = random_p0_ensemble(rng, n_max=5, max_ambient_k=35)
        k = ambient_csr_bound(ens).ambient_k
        word = random_word(rng, ens, k)
        w_star, _, v_star, _ = first_passage_data(ens, word)
        for i in range(ens.size):
            for j in range(ens.size):
                got = best_critical_touching_walk(ens, word.letters, i, j)
                want = None
                if (
                    w_star[i] is not None
                    and v_star[j] is not None
                    and ens.critical.class_reaches(i, j, k)
                ):
                    want = w_star[i] + v_star[j]
                assert got == want


# -- entrywise value check ---------------------------------------------------------


def test_value_check_on_demo_word():
    from mpcsr import demo

    ens = demo.ensemble()
    rep = turnpike_value_check(ens, demo.WORD)
    assert rep.meets_bound
    assert rep.holds
    # Class parity kills entry (0, 1) at even length.
    assert not ens.critical.class_reaches(0, 1, 24)
    prod = is_csr(ens, demo.WORD).product
    assert prod.data[0][1] is None
    assert prod.data[6][0] == -11.0  # first-passage in (-11) plus out (0)


def test_value_check_rejects_other_profiles():
    fam = build_family("P2_six")
    with pytest.raises(AssumptionError):
        turnpike_value_check(fam.ensemble(), Word((1, 2)))


def test_value_check_reports_short_word_mismatches():
    from mpcsr import demo

    ens = demo.ensemble()
    rep = turnpike_value_check(ens, Word((1,)))
    assert not rep.meets_bound or rep.holds
