import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcsr.semiring import (
    EPS,
    DivergenceError,
    MaxPlusMatrix,
    ShapeError,
    entrywise_inf,
    entrywise_sup,
    kleene_star,
    matrices_equal,
    metric_matrix,
    mp_multiply,
    mp_power,
    scalar_add,
    scalar_mul,
)

from oracles import (
    best_walk_matrix,
    dense_multiply,
    dp_walk_matrix,
    edges_of,
    nodes_on_max_mean_cycles,
    power_series_star,
    random_matrix,
)

E = None


def mat(rows):
    return MaxPlusMatrix.from_rows(rows)


def test_scalar_identities():
    assert scalar_add(EPS, -3.0) == -3.0
    assert scalar_add(-3.0, EPS) == -3.0
    assert scalar_add(EPS, EPS) is EPS
    assert scalar_add(2.0, -1.0) == 2.0
    assert scalar_mul(EPS, 5.0) is EPS
    assert scalar_mul(5.0, EPS) is EPS
    assert scalar_mul(EPS, EPS) is EPS
    assert scalar_mul(2.0, 3.0) == 5.0


def test_identity_is_neutral():
    m = mat([[0, -2], [E, -1]])
    assert matrices_equal(mp_multiply(MaxPlusMatrix.identity(2), m), m)
    assert matrices_equal(mp_multiply(m, MaxPlusMatrix.identity(2)), m)


def test_epsilon_matrix_absorbs():
    m = mat([[0, -2], [-3, -1]])
    z = MaxPlusMatrix.epsilon(2, 2)
    assert matrices_equal(mp_multiply(z, m), z)
    assert matrices_equal(mp_multiply(m, z), z)


def test_multiply_shape_mismatch_reports_shapes():
    a = MaxPlusMatrix.epsilon(2, 3)
    b = MaxPlusMatrix.epsilon(2, 3)
    with pytest.raises(ShapeError, match="2x3 by 2x3"):
        mp_multiply(a, b)


def test_square_walk_entry_on_bypass_digraph():
    # Six-node digraph whose square routes 0 -> 1 -> 2 at weight 0.
    a1 = mat([
        [E, 0, E, E, E, E],
        [E, E, 0, E, E, E],
        [E, E, E, 0, -100, E],
        [0, E, E, E, E, E],
        [E, E, E, E, E, -100],
        [E, E, E, -100, E, E],
    ])
    sq = mp_power(a1, 2)
    assert sq.data[0][2] == 0.0
    assert best_walk_matrix([a1.data, a1.data]) == [list(r) for r in sq.data]


def test_power_zero_is_identity():
    m = random_matrix(random.Random(7), 4)
    assert matrices_equal(mp_power(m, 0), MaxPlusMatrix.identity(4))


def test_power_rejects_non_square():
    with pytest.raises(ShapeError):
        mp_power(MaxPlusMatrix.epsilon(2, 3), 2)


@pytest.mark.parametrize(
    "fn, name", [(entrywise_sup, "supremum"), (entrywise_inf, "infimum")]
)
def test_entrywise_bounds_reject_empty_and_mixed_families(fn, name):
    with pytest.raises(ShapeError, match=f"^{name} of an empty family is undefined$"):
        fn([])
    with pytest.raises(ShapeError, match=f"^entrywise {name} needs equal shapes$"):
        fn([MaxPlusMatrix.epsilon(2, 2), MaxPlusMatrix.epsilon(2, 3)])


def test_structure_power_periodicity():
    # Powers of a 0/eps matrix repeat once past their transient.
    s = mat([
        [E, 0, E, E],
        [E, E, 0, E],
        [E, 0, E, 0],
        [0, E, E, E],
    ])
    powers = [MaxPlusMatrix.identity(4)]
    for _ in range(30):
        powers.append(mp_multiply(powers[-1], s))
    gamma = 2
    threshold = next(t for t in range(1, 25) if matrices_equal(powers[t], powers[t + gamma]))
    for extra in range(6):
        assert matrices_equal(powers[threshold + extra], powers[threshold + extra + gamma])


def test_long_power_matches_dp_oracle():
    from mpcsr import demo

    a1 = demo.generators()[0]
    p = mp_power(a1, 24)
    assert dp_walk_matrix([a1.data] * 24) == [list(r) for r in p.data]


def test_kleene_star_of_epsilon_is_identity():
    assert matrices_equal(kleene_star(MaxPlusMatrix.epsilon(3, 3)), MaxPlusMatrix.identity(3))


def test_kleene_star_single_zero_loop():
    assert matrices_equal(kleene_star(mat([[0]])), mat([[0]]))


def test_kleene_star_columns_give_demo_entry_paths():
    from mpcsr import demo

    star = kleene_star(demo.EXPECTED_A_SUP)
    alpha = tuple(
        max(star.data[i][c] for c in range(4) if star.data[i][c] is not None) for i in range(8)
    )
    assert alpha == demo.EXPECTED_ALPHA


def test_kleene_star_rejects_positive_cycle_mean():
    with pytest.raises(DivergenceError):
        kleene_star(mat([[1.0]]))


def test_metric_matrix_of_epsilon_is_epsilon():
    z = MaxPlusMatrix.epsilon(3, 3)
    assert matrices_equal(metric_matrix(z), z)


def test_metric_matrix_gives_critical_avoiding_table():
    from mpcsr import demo

    noncrit = [4, 5, 6, 7]
    b_sup = demo.EXPECTED_A_SUP.mask(noncrit)
    plus = metric_matrix(b_sup)
    assert matrices_equal(plus, demo.EXPECTED_GAMMA_AVOID)
    assert plus.data[4][6] == -3.0


def test_metric_diagonal_zero_iff_on_max_mean_cycle():
    rng = random.Random(20260808)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, density=0.5, lo=-9, hi=0)
        from mpcsr.digraph import max_cycle_mean

        lam = max_cycle_mean(m)
        if lam is None:
            continue
        plus = metric_matrix(m.shift(-lam))
        critical = nodes_on_max_mean_cycles(n, edges_of(m))
        derived = {i for i in range(n) if plus.data[i][i] is not None and plus.data[i][i] >= -1e-9}
        assert derived == critical


def test_entrywise_sup_inf():
    a = mat([[0, E], [-5, -1]])
    b = mat([[-2, -3], [E, -4]])
    assert matrices_equal(entrywise_sup([a, b]), mat([[0, -3], [-5, -1]]))
    assert matrices_equal(entrywise_inf([a, b]), mat([[-2, E], [E, -4]]))


def test_json_round_trip():
    a = mat([[0, E], [-5, -1.5]])
    assert matrices_equal(MaxPlusMatrix.from_json(a.to_json()), a)
    with pytest.raises(ShapeError):
        MaxPlusMatrix.from_json({"rows": 3, "cols": 2, "entries": [[0, 1], [2, 3]]})


small_entry = st.one_of(st.none(), st.integers(min_value=-20, max_value=0))


def square_matrices(n):
    return st.lists(
        st.lists(small_entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(MaxPlusMatrix.from_rows)


@settings(max_examples=120, deadline=None)
@given(square_matrices(3), square_matrices(3), square_matrices(3))
def test_multiplication_is_associative(a, b, c):
    assert matrices_equal(mp_multiply(mp_multiply(a, b), c), mp_multiply(a, mp_multiply(b, c)))


@settings(max_examples=120, deadline=None)
@given(square_matrices(3), square_matrices(3))
def test_multiplication_is_monotone(a, b):
    bump = MaxPlusMatrix.from_rows(
        [[0 if v is None else v + 1 for v in row] for row in a.data]
    )
    assert mp_multiply(a, b).le(mp_multiply(bump, b))
    assert mp_multiply(b, a).le(mp_multiply(b, bump))


@settings(max_examples=80, deadline=None)
@given(square_matrices(3), st.integers(0, 4), st.integers(0, 4))
def test_power_addition_law(a, i, j):
    assert matrices_equal(mp_power(a, i + j), mp_multiply(mp_power(a, i), mp_power(a, j)))


# -- sparse kernels against the dense referees, on non-integer weights -------

weight = st.one_of(st.none(), st.integers(min_value=-20, max_value=20))
scale = st.sampled_from((0.1, 0.3, 1 / 3))


def weight_grids(rows, cols):
    return st.lists(st.lists(weight, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _scaled(grid, factor):
    return MaxPlusMatrix.from_rows([[None if v is None else v * factor for v in row] for row in grid])


@st.composite
def cycle_mean_zero_matrices(draw):
    """Non-integer square matrices shifted to maximum cycle mean zero, n <= 9."""
    from mpcsr.digraph import max_cycle_mean

    n = draw(st.integers(1, 9))
    m = _scaled(draw(weight_grids(n, n)), draw(scale))
    lam = max_cycle_mean(m)
    return m if lam is None else m.shift(-lam)


@settings(max_examples=200, deadline=None)
@given(cycle_mean_zero_matrices())
def test_kleene_star_is_bit_identical_to_power_series(a):
    assert kleene_star(a).data == power_series_star(a).data


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 9), st.data())
def test_sparse_multiply_is_bit_identical_to_dense(rows, inner, cols, data):
    a = _scaled(data.draw(weight_grids(rows, inner)), data.draw(scale))
    b = _scaled(data.draw(weight_grids(inner, cols)), data.draw(scale))
    assert mp_multiply(a, b).data == dense_multiply(a, b).data
