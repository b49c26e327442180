import math
import random

import pytest

from mpcsr.digraph import (
    critical_graph,
    cyclic_classes,
    cyclicity,
    is_irreducible,
    max_cycle_mean,
    strongly_connected_components,
)
from mpcsr.semiring import MaxPlusMatrix, finite_rows

from oracles import edges_of, random_matrix, simple_cycle_means

E = None


def test_scc_splits_two_loops():
    assert strongly_connected_components([[1], [0], [3], [2]]) == [[0, 1], [2, 3]]


def test_irreducible_cases():
    complete = MaxPlusMatrix.from_rows([[0, 0], [0, 0]])
    assert is_irreducible(complete)
    two_loops = MaxPlusMatrix.from_rows([[0, E], [E, 0]])
    assert not is_irreducible(two_loops)


def test_demo_digraph_is_irreducible():
    from mpcsr import demo

    assert is_irreducible(demo.EXPECTED_A_SUP)


def test_cycle_mean_single_loop():
    assert max_cycle_mean(MaxPlusMatrix.from_rows([[-3.0]])) == -3.0


def test_cycle_mean_acyclic_is_eps():
    assert max_cycle_mean(MaxPlusMatrix.from_rows([[E, -1], [E, E]])) is None


def test_demo_supremum_has_zero_cycle_mean():
    from mpcsr import demo

    assert abs(max_cycle_mean(demo.EXPECTED_A_SUP)) <= 1e-9


def test_cycle_mean_matches_enumeration():
    rng = random.Random(1234)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, density=0.45, lo=-20, hi=0)
        means = simple_cycle_means(n, edges_of(m))
        got = max_cycle_mean(m)
        if not means:
            assert got is None
        else:
            assert got == pytest.approx(max(means), abs=1e-9)


def test_cyclicity_single_loop_and_cycle():
    assert cyclicity([0], [(0, 0)]) == 1
    assert cyclicity(range(4), [(0, 1), (1, 2), (2, 3), (3, 0)]) == 4


def test_cyclicity_mixed_lengths_is_primitive():
    # Two-cycle at {0,1} plus two triangles: gcd(2, 3) = 1.
    edges = [(0, 1), (1, 0), (0, 2), (2, 3), (3, 0), (1, 4), (4, 5), (5, 1)]
    assert cyclicity(range(6), edges) == 1


def test_cyclicity_rejects_empty_edges():
    with pytest.raises(ValueError):
        cyclicity(range(3), [])


def test_cyclic_classes_two_cycle():
    assert cyclic_classes([0, 1], [(0, 1), (1, 0)]) == {0: 0, 1: 1}


def test_cyclic_classes_every_edge_advances():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, density=0.6, lo=-5, hi=0)
        edge_set = {(u, v) for u, v, _ in edges_of(m)}
        comps = strongly_connected_components([[v for v, _ in row] for row in finite_rows(m)])
        for comp in comps:
            inner = [(u, v) for u, v in edge_set if u in comp and v in comp]
            if not inner:
                continue
            classes = cyclic_classes(comp, inner)
            gamma = cyclicity(comp, inner)
            for u, v in inner:
                assert (classes[u] + 1 - classes[v]) % gamma == 0


def test_critical_structure_of_demo():
    from mpcsr import demo

    crit = critical_graph(demo.EXPECTED_A_SUP, 0.0)
    assert crit.critical_nodes == frozenset({0, 1, 2, 3})
    assert crit.component_count == 1
    comp = crit.components[0]
    assert comp.cyclicity == 2
    assert comp.classes() == [[0, 2], [1, 3]]
    assert crit.global_cyclicity == 2
    assert crit.ambient_cyclicity == 2
    # Critical edges: the four-cycle plus both two-cycles.
    assert crit.critical_edges == frozenset(
        {(0, 1), (1, 2), (2, 3), (3, 0), (0, 3), (2, 1)}
    )


def test_critical_structure_three_loops():
    from mpcsr.counterexamples import build_family

    fam = build_family("P3_four")
    crit = critical_graph(fam.generators[0], 0.0)
    assert crit.component_count == 3
    assert [c.cyclicity for c in crit.components] == [1, 1, 1]
    assert crit.global_cyclicity == 1
    assert crit.ambient_cyclicity == 1


def test_critical_structure_cycle_inside_slower_ambient():
    from mpcsr.counterexamples import build_family

    fam = build_family("P2_six")
    crit = critical_graph(fam.generators[0], 0.0)
    assert crit.critical_edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 0)})
    assert crit.global_cyclicity == 4
    assert crit.ambient_cyclicity == 2


def test_critical_edges_lie_on_max_mean_cycles():
    rng = random.Random(4321)
    from oracles import nodes_on_max_mean_cycles

    for _ in range(40):
        n = rng.randint(2, 6)
        m = random_matrix(rng, n, density=0.5, lo=-9, hi=0)
        lam = max_cycle_mean(m)
        if lam is None:
            continue
        crit = critical_graph(m, lam)
        assert crit.critical_nodes == frozenset(nodes_on_max_mean_cycles(n, edges_of(m)))
        for u, v in crit.critical_edges:
            assert u in crit.critical_nodes and v in crit.critical_nodes


def test_global_cyclicity_divisible_by_components():
    rng = random.Random(777)
    for _ in range(30):
        n = rng.randint(3, 6)
        m = random_matrix(rng, n, density=0.5, lo=-7, hi=0)
        lam = max_cycle_mean(m)
        if lam is None:
            continue
        crit = critical_graph(m, lam)
        for comp in crit.components:
            assert crit.global_cyclicity % comp.cyclicity == 0
        assert crit.global_cyclicity == math.lcm(*(c.cyclicity for c in crit.components))


def test_ambient_classes_advance_by_one():
    from mpcsr import demo

    crit = critical_graph(demo.EXPECTED_A_SUP, 0.0)
    classes = crit.ambient_class_of
    r = crit.ambient_cyclicity
    for u, v, _ in edges_of(demo.EXPECTED_A_SUP):
        assert (classes[u] + 1 - classes[v]) % r == 0


def test_class_reachability_arithmetic():
    from mpcsr import demo

    crit = critical_graph(demo.EXPECTED_A_SUP, 0.0)
    # Walks between fixed classes only exist for one parity of the length.
    assert crit.class_reaches(0, 1, 1)
    assert not crit.class_reaches(0, 1, 2)
    assert crit.class_reaches(6, 0, 24)
    assert not crit.class_reaches(6, 7, 24)


def test_matrix_routines_reject_a_non_square_matrix():
    wide = MaxPlusMatrix.from_rows([[0, E, -1], [E, 0, E]])
    for routine in (max_cycle_mean, is_irreducible):
        with pytest.raises(ValueError, match="square"):
            routine(wide)
    with pytest.raises(ValueError, match="square"):
        critical_graph(wide, 0.0)


@pytest.mark.parametrize("edges", [[(0, 1), (1, 2)], [(0, 1), (-1, 0)]], ids=["above", "negative"])
def test_cyclicity_rejects_edges_outside_the_node_range(edges):
    with pytest.raises(ValueError, match="leaves the node range 0..1"):
        cyclicity([0, 1], edges)
    with pytest.raises(ValueError, match="leaves the node range 0..1"):
        cyclic_classes([0, 1], edges)
