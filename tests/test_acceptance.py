"""Acceptance gate: every exit criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print.  The randomized property suites each draw at least 200 cases with
integer weights in [-20, 0] on at most six nodes (500 sampled words per
ensemble for the exactness-threshold suite) and must finish under sixty
seconds combined; the exact-reproduction checks must finish under one
second each.

The threshold-scalar criterion checks the computed threshold against the
recorded threshold tables of the demo dataset: their maximum is 26.2 at
connect entry (6, 7), so the threshold is 26.22... and the least length 27.
The recorded scalar 23.8 (least length 24) is the connect entry (6, 4), not
the maximum; the criterion pins that discrepancy, and ``paper-repro`` keeps
reporting it as ``known_discrepancy``.
"""

import math
import random
import time

import pytest

from mpcsr import demo
from mpcsr.bounds import ambient_csr_bound, schwarz, weak_csr_bound
from mpcsr.counterexamples import FAMILY_IDS, build_family, verify_family
from mpcsr.csr import csr_critical_projections, csr_product, csr_terms, is_csr, rank_compress
from mpcsr.digraph import max_cycle_mean
from mpcsr.ensemble import path_weights
from mpcsr.semiring import entrywise_sup, matrices_equal, mp_multiply, mp_power
from mpcsr.trellis import optimal_walk_lengths

from oracles import (
    best_walk_matrix,
    edges_of,
    random_matrix,
    random_p0_ensemble,
    random_visualised_ensemble,
    random_word,
    s_power_csr_terms,
    simple_cycle_means,
)

SUITE_SECONDS: dict[str, float] = {}


def _criterion(name, fn, budget=None):
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    SUITE_SECONDS[name] = elapsed
    if budget is not None and elapsed >= budget:
        print(f"[ACCEPTANCE] {name}: FAIL (took {elapsed:.2f}s, budget {budget}s)")
        raise AssertionError(f"{name} exceeded its {budget}s budget: {elapsed:.2f}s")
    print(f"[ACCEPTANCE] {name}: PASS ({elapsed:.2f}s)")


# -- exact reproduction: demo dataset -----------------------------------------


def test_demo_sup_inf_exact():
    def body():
        ens = demo.ensemble()
        assert matrices_equal(ens.a_sup, demo.EXPECTED_A_SUP)
        assert matrices_equal(ens.a_inf, demo.EXPECTED_A_INF)

    _criterion("demo supremum/infimum matrices exact", body, budget=1.0)


def test_demo_path_vectors_exact():
    def body():
        pw = path_weights(demo.ensemble())
        assert pw.alpha == demo.EXPECTED_ALPHA
        assert pw.beta == demo.EXPECTED_BETA
        assert pw.w_inf == demo.EXPECTED_W
        assert pw.v_inf == demo.EXPECTED_V

    _criterion("demo path-weight vectors exact", body, budget=1.0)


def test_demo_threshold_tables_cell_for_cell():
    def body():
        rep = ambient_csr_bound(demo.ensemble())
        mismatches = []
        for i in range(8):
            for j in range(8):
                got = rep.branch_connect[i][j]
                want = demo.RECORDED_BRANCH_CONNECT[i][j]
                if abs(got - want) > demo.TABLE_TOL:
                    mismatches.append(("connect", i, j, got, want))
                got_a = rep.branch_avoid[i][j]
                want_a = demo.RECORDED_BRANCH_AVOID[i][j]
                if (got_a is None) != (want_a is None) or (
                    got_a is not None and abs(got_a - want_a) > demo.TABLE_TOL
                ):
                    mismatches.append(("avoid", i, j, got_a, want_a))
        assert not mismatches, f"cell-level disagreements: {mismatches}"

    _criterion("demo threshold tables match recorded displays cell-for-cell", body, budget=1.0)


def test_demo_threshold_scalar_as_recorded():
    def body():
        rep = ambient_csr_bound(demo.ensemble())
        tables = (("connect", demo.RECORDED_BRANCH_CONNECT), ("avoid", demo.RECORDED_BRANCH_AVOID))
        cells = [
            (value, table, i, j)
            for table, rows in tables
            for i, row in enumerate(rows)
            for j, value in enumerate(row)
            if value is not None
        ]
        recorded_max, table, i, j = max(cells)
        assert (table, i, j) == ("connect", 6, 7)
        assert abs(rep.bound - recorded_max) <= demo.TABLE_TOL
        assert rep.ambient_k == math.ceil(recorded_max) == 27
        # Connect entry (6, 7) from the pinned path-weight vectors.
        numerator = demo.EXPECTED_W[6] + demo.EXPECTED_V[7] - demo.EXPECTED_ALPHA[6] - demo.EXPECTED_BETA[7]
        exact = numerator / -4.5 + 2 * (8 - 4) + schwarz(2, 4)
        assert abs(rep.bound - exact) <= 1e-9
        # The recorded scalar is the connect entry (6, 4), not the maximum.
        assert demo.RECORDED_BOUND == demo.RECORDED_BRANCH_CONNECT[6][4]
        assert abs(rep.branch_connect[6][4] - demo.RECORDED_BOUND) <= demo.TABLE_TOL
        assert rep.bound > demo.RECORDED_BOUND and rep.ambient_k > demo.RECORDED_K
        checks = {item.name: item for item in demo.reproduction_checks()}
        scalar = checks["threshold_scalar"]
        assert not scalar.ok and scalar.status == "known_discrepancy"
        assert scalar.detail["computed_bound"] == rep.bound
        assert scalar.detail["computed_k"] == 27
        assert scalar.detail["recorded_bound"] == 23.8 and scalar.detail["recorded_k"] == 24

    _criterion(
        "demo threshold scalar is the recorded tables' maximum 26.2 / 27; "
        "recorded 23.8 / 24 is cell (6, 4), a known discrepancy",
        body,
        budget=1.0,
    )


def test_demo_word_product_and_rank():
    def body():
        ens = demo.ensemble()
        check = is_csr(ens, demo.WORD)
        assert matrices_equal(check.product, demo.EXPECTED_PRODUCT)
        assert check.equal
        factors = rank_compress(check.terms)
        assert factors.rank_bound == 2
        for col, expected in demo.EXPECTED_C_PRIME_COLS.items():
            assert tuple(factors.c_prime.data[i][col] for i in range(8)) == expected
        for j in range(8):
            if j not in demo.EXPECTED_C_PRIME_COLS:
                assert all(factors.c_prime.data[i][j] is None for i in range(8))
        for row, expected in demo.EXPECTED_R_PRIME_ROWS.items():
            assert factors.r_prime.data[row] == expected
        for i in range(8):
            if i not in demo.EXPECTED_R_PRIME_ROWS:
                assert all(v is None for v in factors.r_prime.data[i])

    _criterion("demo word product, CSR equality and rank-2 factors exact", body, budget=1.0)


# -- exact reproduction: counterexample families --------------------------------


_FAMILY_WITNESSES = {
    "P1_six": [
        ("odd_length", 5, 4, -401.0, -302.0),
        ("even_length", 1, 4, -301.0, -202.0),
        ("even_length", 3, 4, -401.0, -302.0),
    ],
    "P1_three": [("length_0_mod_3", 0, 1, -100.0, -2.0)],
    "P2_six": [("length_1_mod_4", 0, 4, -301.0, -202.0)],
    "P3_four": [
        ("any_length", 0, 2, -101.0, -2.0),
        ("any_length", 3, 2, -201.0, -102.0),
    ],
}


@pytest.mark.parametrize("family_id", FAMILY_IDS)
def test_family_display_reproduction(family_id):
    def body():
        fam = build_family(family_id)
        report = verify_family(fam, [fam.display_t])
        assert report.all_ok
        by_label = {c.label: c for c in report.checks}
        for cls in fam.word_classes:
            if cls.display is not None:
                assert by_label[cls.label].display_ok is True
        for label, r, c, pv, cv in _FAMILY_WITNESSES[family_id]:
            details = by_label[label].witness_details
            assert (r, c, pv, cv, pv, cv) in details

    _criterion(f"family {family_id} display matrices and witnesses exact", body, budget=1.0)


def test_families_fail_csr_for_all_parameters():
    def body():
        for family_id in FAMILY_IDS:
            fam = build_family(family_id)
            report = verify_family(fam, range(2, 21))
            assert report.all_ok
            assert all(c.failed_csr for c in report.checks)

    _criterion("every family word for t in 2..20 fails the CSR test", body)


# -- randomized property suites ---------------------------------------------------


def test_property_walk_oracle():
    def body():
        rng = random.Random(101)
        for _ in range(200):
            n = rng.randint(2, 5)
            k = rng.randint(1, 6)
            while n ** max(k - 1, 0) > 1500:
                k = rng.randint(1, 6)
            m = random_matrix(rng, n, density=rng.uniform(0.3, 0.8))
            power = mp_power(m, k)
            assert best_walk_matrix([m.data] * k) == [list(r) for r in power.data]

    _criterion("walk-enumeration oracle agrees with matrix powers (200 cases)", body)


def test_property_cycle_mean_oracle():
    def body():
        rng = random.Random(202)
        for _ in range(200):
            n = rng.randint(2, 6)
            m = random_matrix(rng, n, density=rng.uniform(0.2, 0.7))
            means = simple_cycle_means(n, edges_of(m))
            got = max_cycle_mean(m)
            if means:
                assert got == pytest.approx(max(means), abs=1e-9)
            else:
                assert got is None

    _criterion("cycle-mean dynamic program agrees with cycle enumeration (200 cases)", body)


def test_property_class_column_row_equality():
    def body():
        rng = random.Random(303)
        for _ in range(200):
            ens = random_visualised_ensemble(rng, n_max=6)
            word = random_word(rng, ens, rng.randint(1, 10))
            terms = s_power_csr_terms(ens, word)
            for comp, c_nu, r_nu in zip(
                terms.components, terms.c_components, terms.r_components
            ):
                for members in comp.classes():
                    first = members[0]
                    for other in members[1:]:
                        for i in range(ens.size):
                            assert c_nu.data[i][other] == c_nu.data[i][first]
                        assert r_nu.data[other] == r_nu.data[first]

    _criterion("class-mate columns/rows of the S-power CSR factors coincide (200 cases)", body)


def test_property_component_sum():
    def body():
        rng = random.Random(404)
        for _ in range(200):
            ens = random_visualised_ensemble(rng, n_max=6)
            word = random_word(rng, ens, rng.randint(1, 10))
            terms = s_power_csr_terms(ens, word)
            global_csr = mp_multiply(
                mp_multiply(terms.c_global, mp_power(terms.s_global, terms.k % terms.gamma)),
                terms.r_global,
            )
            parts = [
                mp_multiply(mp_multiply(c, mp_power(s, terms.k % g)), r)
                for c, s, r, g in zip(
                    terms.c_components,
                    terms.s_components,
                    terms.r_components,
                    terms.gamma_nu,
                )
            ]
            assert matrices_equal(global_csr, entrywise_sup(parts))

    _criterion("global S-power CSR product equals the component sum exactly (200 cases)", body)


def test_property_rank_factorisation():
    def body():
        rng = random.Random(505)
        for _ in range(200):
            ens = random_visualised_ensemble(rng, n_max=6)
            word = random_word(rng, ens, rng.randint(1, 10))
            terms = csr_terms(ens, word)
            factors = rank_compress(terms)
            assert matrices_equal(
                mp_multiply(factors.c_prime, factors.r_prime), csr_product(terms)
            )
            live = sum(
                1
                for j in range(ens.size)
                if any(factors.c_prime.data[i][j] is not None for i in range(ens.size))
            )
            assert live == factors.rank_bound == sum(terms.gamma_nu)

    _criterion("compressed factors rebuild the CSR product at the rank bound (200 cases)", body)


def test_property_weak_threshold_soundness():
    def body():
        rng = random.Random(606)
        cases = 0
        while cases < 200:
            ens = random_visualised_ensemble(rng, n_max=6, require_lambda_star_negative=True)
            res = weak_csr_bound(ens, 150)
            if res.k is None or res.k > 60:
                continue
            for extra in (0, 1, 2):
                for _ in range(4):
                    word = random_word(rng, ens, res.k + extra)
                    check = is_csr(ens, word)
                    assert check.product.le(check.csr)
                    cases += 1

    _criterion("products at the weak threshold stay below their CSR form (200 cases)", body)


@pytest.fixture(scope="module")
def p0_ensembles():
    rng = random.Random(707)
    return [random_p0_ensemble(rng, n_max=6, max_ambient_k=45) for _ in range(2)]


def test_property_ambient_threshold_soundness(p0_ensembles):
    def body():
        rng = random.Random(808)
        for ens in [*p0_ensembles, demo.ensemble()]:
            k = ambient_csr_bound(ens).ambient_k
            for length in (k, k + 1):
                for _ in range(250):
                    word = random_word(rng, ens, length)
                    assert is_csr(ens, word).equal

    _criterion(
        "every sampled word at or past the exactness threshold is CSR "
        "(500 words x 3 ensembles)",
        body,
    )


def test_property_first_passage_length_caps():
    def body():
        rng = random.Random(909)
        for case in range(200):
            ens = random_visualised_ensemble(
                rng, n_max=6, require_lambda_star_negative=(case % 2 == 0)
            )
            word = random_word(rng, ens, rng.randint(1, 12))
            rep = optimal_walk_lengths(ens, word)
            for length, bound in zip(
                rep.w_lengths + rep.v_lengths, rep.w_bounds + rep.v_bounds
            ):
                if length is not None:
                    assert bound is not None and length <= bound + 1e-9

    _criterion("realised first-passage lengths respect their caps (200 cases)", body)


def test_property_projection_identities(p0_ensembles):
    def body():
        rng = random.Random(111)
        cases = 0
        for ens in p0_ensembles:
            k = ambient_csr_bound(ens).ambient_k
            for extra in (0, 1, 2, 3):
                for _ in range(25):
                    word = random_word(rng, ens, k + extra)
                    assert csr_critical_projections(csr_terms(ens, word)).all_ok
                    cases += 1
        assert cases >= 200

    _criterion("critical projection identities hold past the threshold (200 cases)", body)


def test_property_suites_total_runtime():
    def body():
        total = sum(
            seconds
            for name, seconds in SUITE_SECONDS.items()
            if "cases" in name or "ensembles" in name
        )
        print(f"[ACCEPTANCE] property suites total runtime: {total:.1f}s")
        assert total < 60.0, f"property suites took {total:.1f}s"

    _criterion("property suites finish within sixty seconds", body)
