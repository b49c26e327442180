import random
import sys

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from mpcsr.counterexamples import build_family
from mpcsr.csr import is_csr, structure_matrix
from mpcsr.digraph import critical_graph, max_cycle_mean, zero_critical_graph, zero_cycle_edges
from mpcsr.ensemble import EnsembleError, _critical, build_ensemble, path_weights, u_k
from mpcsr.semiring import MaxPlusMatrix, _star, matrices_equal, mp_power
from mpcsr.trellis import first_passage_data, gamma_product

from oracles import bench_module, bitwise, random_word, s_power_csr_terms, star_route_build_ensemble

E = None


def mat(rows):
    return MaxPlusMatrix.from_rows(rows)


def test_rejects_empty_and_mismatched():
    with pytest.raises(EnsembleError):
        build_ensemble([])
    with pytest.raises(EnsembleError):
        build_ensemble([mat([[0]]), mat([[0, E], [E, 0]])])
    with pytest.raises(EnsembleError):
        build_ensemble([mat([[E, 0], [E, E]])])  # acyclic: cycle mean is eps


def test_single_visualised_generator_passes_through():
    a = mat([[0, -2], [-1, E]])
    ens = build_ensemble([a])
    assert ens.visualisation_vector == (0.0, 0.0)
    assert matrices_equal(ens.normalized[0], a)
    assert ens.assumption_report.all_core()


def test_normalisation_shifts_cycle_mean_to_zero():
    a = mat([[3.0, 1.0], [2.0, E]])  # loop of weight 3 dominates
    ens = build_ensemble([a])
    assert matrices_equal(ens.normalized[0], mat([[0.0, -2.0], [-1.0, E]]))


def test_rescaling_zeroes_critical_entries():
    # One generator whose critical cycle carries nonzero entries: the build
    # must find a scaling making them exactly zero and the rest nonpositive.
    a = mat([
        [E, 2.0, E],
        [-2.0, E, -1.0],
        [-4.0, E, E],
    ])
    ens = build_ensemble([a])
    m = ens.normalized[0]
    for (u, v) in ens.critical.critical_edges:
        assert m.data[u][v] == pytest.approx(0.0, abs=1e-9)
    assert all(v <= 1e-9 for row in m.data for v in row if v is not None)
    assert ens.assumption_report.visualised


def test_rescaling_vector_is_a_subeigenvector():
    a = mat([
        [E, 2.0, E],
        [-2.0, E, -1.0],
        [-4.0, E, E],
    ])
    ens = build_ensemble([a])
    x = ens.visualisation_vector
    assert any(v != 0.0 for v in x)
    # The vector scales the normalised supremum below itself.
    from mpcsr.digraph import max_cycle_mean
    from mpcsr.semiring import entrywise_sup

    normalized = [g.shift(-max_cycle_mean(g)) for g in ens.generators]
    sup0 = entrywise_sup(normalized)
    for i in range(3):
        for j in range(3):
            v = sup0.data[i][j]
            if v is not None:
                assert v + x[j] <= x[i] + 1e-9


def test_build_rejects_node_cut_off_from_critical_set():
    # Rescaling is needed (a positive entry) but node 1 cannot reach the
    # critical loop, so no finite scaling vector exists.
    a = mat([
        [0, 1.0],
        [E, -5.0],
    ])
    with pytest.raises(EnsembleError, match="cannot reach"):
        build_ensemble([a])


def test_noncritical_mask_of_supremum():
    from mpcsr import demo

    ens = demo.ensemble()
    for c in sorted(ens.critical_nodes):
        assert all(v is None for v in ens.b_sup.data[c])
        assert all(ens.b_sup.data[i][c] is None for i in range(8))
    for i in (4, 5, 6, 7):
        for j in (4, 5, 6, 7):
            assert ens.b_sup.data[i][j] == ens.a_sup.data[i][j]


def test_build_is_idempotent_on_visualised_input():
    from mpcsr import demo

    ens = build_ensemble(demo.generators())
    again = build_ensemble(list(ens.normalized))
    assert all(matrices_equal(a, b) for a, b in zip(ens.normalized, again.normalized))


def test_demo_sup_and_inf_match_pinned():
    from mpcsr import demo

    ens = build_ensemble(demo.generators())
    assert matrices_equal(ens.a_sup, demo.EXPECTED_A_SUP)
    assert matrices_equal(ens.a_inf, demo.EXPECTED_A_INF)
    assert ens.visualisation_vector == (0.0,) * 8


def test_three_loop_family_inf_is_first_generator():
    fam = build_family("P3_four")
    ens = fam.ensemble()
    assert matrices_equal(ens.a_inf, fam.generators[0])


def test_demo_assumptions_and_profile():
    from mpcsr import demo

    rep = demo.ensemble().assumption_report
    assert rep.all_core()
    assert rep.profile == "P0"


@pytest.mark.parametrize(
    "family_id,profile",
    [("P1_six", "P1"), ("P1_three", "P1"), ("P2_six", "P2"), ("P3_four", "P3")],
)
def test_family_profiles(family_id, profile):
    rep = build_family(family_id).ensemble().assumption_report
    assert rep.all_core()
    assert rep.profile == profile


def test_p1_six_profile_detail():
    ens = build_family("P1_six").ensemble()
    assert ens.critical.ambient_cyclicity == 1
    assert ens.critical.global_cyclicity == 2
    assert ens.critical.component_count == 1


def test_p3_four_profile_detail():
    ens = build_family("P3_four").ensemble()
    assert ens.critical.component_count == 3


def test_demo_path_weights_match_pinned():
    from mpcsr import demo

    pw = path_weights(demo.ensemble())
    assert pw.alpha == demo.EXPECTED_ALPHA
    assert pw.beta == demo.EXPECTED_BETA
    assert pw.w_inf == demo.EXPECTED_W
    assert pw.v_inf == demo.EXPECTED_V
    assert matrices_equal(pw.gamma_avoid, demo.EXPECTED_GAMMA_AVOID)
    # Critical rows and columns never carry a critical-avoiding path.
    for i in range(4):
        assert all(v is None for v in pw.gamma_avoid.data[i])
        assert all(pw.gamma_avoid.data[j][i] is None for j in range(8))


def test_path_weights_dominance():
    from mpcsr import demo

    pw = path_weights(demo.ensemble())
    for a, w in zip(pw.alpha, pw.w_inf):
        assert w <= a
    for b, v in zip(pw.beta, pw.v_inf):
        assert v <= b
    for c in (0, 1, 2, 3):
        assert pw.alpha[c] == 0.0 and pw.beta[c] == 0.0


def test_demo_noncritical_cycle_mean():
    from mpcsr import demo

    assert demo.ensemble().lambda_star == pytest.approx(-4.5, abs=1e-9)


def test_lambda_star_eps_when_no_noncritical_cycle():
    ens = build_family("P1_six").ensemble()
    assert ens.lambda_star is None


def test_u_k_one_is_the_infimum():
    from mpcsr import demo

    ens = demo.ensemble()
    assert matrices_equal(u_k(ens, 1), ens.a_inf)
    with pytest.raises(ValueError):
        u_k(ens, 0)


def test_u_k_and_product_share_finiteness_pattern():
    from mpcsr import demo

    ens = demo.ensemble()
    rng = random.Random(5)
    for _ in range(25):
        k = rng.randint(1, 12)
        word = random_word(rng, ens, k)
        prod = gamma_product(ens, word)
        uk = u_k(ens, k)
        assert prod.support() == uk.support()
        assert uk.le(prod)


def test_path_weights_memo_is_per_instance():
    gens = build_family("P1_three").generators
    ens, twin = build_ensemble(list(gens)), build_ensemble(list(gens))
    first = path_weights(ens)
    assert path_weights(ens) is first
    # The memo is not a field: a build with it still equals one without.
    assert ens == twin
    # Each instance computes its own result; nothing is shared.
    other = path_weights(twin)
    assert other is not first
    assert other == first


def _p0_generators(seed, n=24, gamma=3, density=0.5, count=3):
    gen = bench_module("gen")
    return [MaxPlusMatrix.from_rows(g) for g in gen.p0_generators(random.Random(seed), n, gamma, density, count)]


def _build_calls(monkeypatch, generators):
    """Calls per layer while building an ensemble and its path weights."""
    calls = dict.fromkeys(
        ["critical_graph", "kleene_star", "_star", "max_cycle_mean", "strongly_connected_components"], 0
    )

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "mpcsr" and hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, getattr(mod, name)))
    path_weights(build_ensemble(generators))
    return calls


def test_demo_build_runs_one_checked_star(monkeypatch):
    # Every star inside the build and the path weights runs on a matrix whose
    # cycle mean is known to be nonpositive, except the one checked star on
    # the supremum.  The visualised entries are all <= 0, so the critical
    # digraphs of the visualised supremum and generators come off their zero
    # cycles, and the only critical_graph call is on the normalised supremum.
    from mpcsr import demo

    calls = _build_calls(monkeypatch, demo.generators())
    assert calls["kleene_star"] == 1
    assert calls["critical_graph"] == 1
    assert calls["_star"] <= 4
    assert calls["max_cycle_mean"] <= 8
    assert calls["strongly_connected_components"] <= 25


def test_p0_build_runs_one_checked_star(monkeypatch):
    # A bench/gen.py ensemble needs visualising: the visualisation reuses the
    # star that critical_graph computed for the normalised supremum.
    generators = _p0_generators(11)
    assert any(build_ensemble(generators).visualisation_vector)
    calls = _build_calls(monkeypatch, generators)
    assert calls["kleene_star"] == 1
    assert calls["critical_graph"] == 1
    assert calls["_star"] <= 4
    assert calls["max_cycle_mean"] <= 6
    assert calls["strongly_connected_components"] <= 19


# -- the zero-cycle route against critical_graph ------------------------------


def _exact_sets():
    from mpcsr import demo

    yield "demo", demo.generators()
    for fid in ("P1_six", "P1_three", "P2_six", "P3_four"):
        yield fid, list(build_family(fid).generators)
    seed = 0
    for n in (12, 18, 24):
        for gamma in (1, 2, 3):
            for density in (0.15, 0.5):
                seed += 1
                yield f"p0 n={n} gamma={gamma} density={density}", _p0_generators(seed, n, gamma, density)
    # Generator 0 misses the loop at node 0, a critical edge of the supremum:
    # its critical digraph differs, and the report says so.
    gens = list(build_family("P3_four").generators)
    gens[0] = _with_entry(gens[0], 0, 0, None)
    yield "P3_four without loop 0 in generator 0", gens


def _with_entry(m, i, j, value):
    rows = [list(row) for row in m.data]
    rows[i][j] = value
    return MaxPlusMatrix.from_rows(rows)


def _scaled(gens, f):
    return [MaxPlusMatrix.from_rows([[None if v is None else f(v) for v in row] for row in g.data]) for g in gens]


def _decimal_sets():
    from mpcsr import demo

    yield "demo x0.1", _scaled(demo.generators(), lambda v: v * 0.1)
    yield "demo +0.1", _scaled(demo.generators(), lambda v: v + 0.1)
    # Cycle mean -25/3: every generator entry is shifted by a Fraction.
    yield "cycle mean -25/3", [mat([[-11.0, -13.0, E], [-12.0, -12.0, -1.0], [-11.0, E, E]])]


def _positive_sets():
    # Generator 1 misses the critical edge (2, 3) of the supremum and has no
    # zero cycle left: its cycle mean is -1/2, and the normalised supremum
    # has cycle mean 3/8, so positive entries remain.
    gens = list(build_family("P2_six").generators)
    gens[1] = _with_entry(gens[1], 2, 3, None)
    yield "P2_six without (2, 3) in generator 1", gens


def _assert_same_structure(got, want):
    assert got == want
    assert bitwise(got) == bitwise(want)


@pytest.mark.parametrize("label, generators", list(_exact_sets()), ids=lambda x: x if isinstance(x, str) else "")
def test_zero_cycle_route_matches_critical_graph(label, generators):
    ens = build_ensemble(generators)
    assert all(v is None or v <= 0 for m in ens.normalized for row in m.data for v in row)
    for m in (ens.a_sup, *ens.normalized):
        _assert_same_structure(zero_critical_graph(m), critical_graph(m, max_cycle_mean(m)))
        assert zero_cycle_edges(m) == critical_graph(m, max_cycle_mean(m)).critical_edges


@pytest.mark.parametrize(
    "label, generators",
    list(_exact_sets()) + list(_decimal_sets()) + list(_positive_sets()),
    ids=lambda x: x if isinstance(x, str) else "",
)
def test_build_matches_star_route_referee(label, generators):
    ens = build_ensemble(generators)
    ref = star_route_build_ensemble(generators)
    assert ens == ref
    assert bitwise(ens) == bitwise(ref)
    assert _outcome(path_weights, ens) == _outcome(path_weights, ref)


def _outcome(fn, *args):
    try:
        return bitwise(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("label, generators", list(_decimal_sets()), ids=lambda x: x if isinstance(x, str) else "")
def test_decimal_sets_take_the_zero_cycle_route(label, generators):
    # Decimal entries parse to Fractions, so visualising leaves every entry
    # exactly <= 0 (no float dirt above 0) and the zero-cycle route applies.
    ens = build_ensemble(generators)
    values = [v for m in (*ens.normalized, ens.a_sup) for row in m.data for v in row if v is not None]
    assert not any(isinstance(v, float) for v in values)
    assert all(v <= 0 for v in values)
    _assert_same_structure(_critical(ens.a_sup, True), critical_graph(ens.a_sup, max_cycle_mean(ens.a_sup)))


def test_matrix_without_zero_cycle_takes_the_star_route():
    # P1_six's supremum without its critical edge (0, 1): every cycle left
    # has a negative edge.
    m = _with_entry(build_family("P1_six").ensemble().a_sup, 0, 1, None)
    lam = max_cycle_mean(m)
    assert lam < 0
    assert zero_critical_graph(m) is None
    _assert_same_structure(_critical(m, True), critical_graph(m, lam))


@st.composite
def _zero_cycle_matrices(draw):
    n = draw(st.integers(1, 7))
    rows = [[draw(st.one_of(st.none(), st.integers(-9, 0).map(float))) for _ in range(n)] for _ in range(n)]
    cycle = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        rows[u][v] = 0.0
    return MaxPlusMatrix.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(_zero_cycle_matrices())
def test_zero_cycle_route_matches_critical_graph_on_random_matrices(m):
    _assert_same_structure(zero_critical_graph(m), critical_graph(m, max_cycle_mean(m)))


def test_critical_graph_star_is_the_star_of_a_zero_mean_matrix():
    ens = build_ensemble(_p0_generators(5))
    a = ens.a_sup
    assert matrices_equal(vars(critical_graph(a, 0.0))["_star"], _star(a))


# -- integer data stay on int ----------------------------------------------------


def _integer_ensembles():
    from mpcsr import demo

    yield "demo", build_ensemble(demo.generators())
    for fid in ("P1_six", "P1_three", "P2_six", "P3_four"):
        yield fid, build_ensemble(list(build_family(fid).generators))
    seed = 100
    for n in (12, 20, 32):
        for gamma in (1, 2, 3):
            for density in (0.15, 0.5):
                seed += 1
                yield f"p0 n={n} gamma={gamma} density={density}", build_ensemble(_p0_generators(seed, n, gamma, density))


def _finite(values):
    return [v for v in values if v is not None]


@pytest.mark.parametrize("label, ens", list(_integer_ensembles()), ids=lambda x: x if isinstance(x, str) else "")
def test_integer_data_stay_on_int(label, ens):
    # A float 0.0 in a kernel's start values would turn every sum after it
    # into a float, silently, with equal comparisons.
    mats = [*ens.normalized, ens.a_sup, ens.a_inf, ens.b_sup, _star(ens.a_sup), _star(ens.a_inf)]
    pw = path_weights(ens)
    values = []
    rng = random.Random(len(label))
    for k in (5, 100):  # a plain fold, then one long enough for the factored fold
        word = random_word(rng, ens, k)
        mats.append(gamma_product(ens, word))
        w_star, _, v_star, _ = first_passage_data(ens, word)
        values += _finite(w_star + v_star)
    check = is_csr(ens, word)
    ref = s_power_csr_terms(ens, word)
    s = structure_matrix(ens.size, sorted(ens.critical.critical_edges))
    mats += [check.csr, ref.c_global, ref.r_global, ref.s_global, mp_power(s, 0)]
    values += _finite(pw.alpha + pw.beta + pw.w_inf + pw.v_inf + ens.visualisation_vector)
    mats.append(pw.gamma_avoid)
    values += [v for m in mats for row in m.data for v in _finite(row)]
    assert values
    assert {type(v) for v in values} == {int}
