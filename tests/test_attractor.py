import networkx as nx
import pytest

import sturm.attractor
from oracles import scalar_connections, scan_target_set
from sturm import (
    MinimaxExtrema,
    NeighborQuartet,
    SturmPermutation,
    boundary_neighbors,
    build_model,
    connection_graph,
    connects,
    enumerate_sturm,
    identity,
    identify_neighbors,
    is_z_adjacent,
    minimax,
    minimax_report,
    suspend,
    target_set,
    verify_minimax_theorem,
)

# All heteroclinic connections of the seven-crossing example, by the
# criterion (Morse drop and no blocking equilibrium in between). The
# Morse-2 equilibrium reaches everything; each Morse-1 equilibrium
# reaches its two poles.
EDGES7 = {
    (2, 1),
    (2, 7),
    (3, 1),
    (3, 2),
    (3, 4),
    (3, 5),
    (3, 6),
    (3, 7),
    (4, 1),
    (4, 5),
    (6, 5),
    (6, 7),
}


class TestBuildModel:
    def test_worked_example_edges(self, model7):
        assert set(model7.connections) == EDGES7
        assert {(3, 1), (3, 5), (3, 6)} <= set(model7.connections)

    def test_identity_3(self):
        model = build_model(identity(3))
        assert set(model.connections) == {(2, 1), (2, 3)}

    def test_singleton(self):
        assert build_model(SturmPermutation((1,))).connections == frozenset()

    def test_morse_strictly_drops_along_edges(self, model7):
        for j, k in model7.connections:
            assert model7.morse[j - 1] > model7.morse[k - 1]


class TestZAdjacency:
    def test_candidate_does_not_block(self, model7):
        assert is_z_adjacent(model7, 3, 5) == (True, None)

    def test_two_candidates_do_not_block(self, model7):
        assert is_z_adjacent(model7, 3, 6) == (True, None)

    def test_blocked_with_witness(self, model7):
        ok, witness = is_z_adjacent(model7, 2, 5)
        assert not ok and witness == 3
        ok, witness = is_z_adjacent(model7, 4, 7)
        assert not ok and witness == 5
        ok, witness = is_z_adjacent(model7, 6, 1)
        assert not ok and witness == 4

    def test_label_neighbors_always_adjacent(self, pool):
        for p in pool[7]:
            model = build_model(p)
            for j in range(1, p.n):
                assert is_z_adjacent(model, j, j + 1) == (True, None)

    def test_symmetric(self, model7):
        for j in range(1, 8):
            for k in range(1, 8):
                if j != k:
                    assert is_z_adjacent(model7, j, k)[0] == is_z_adjacent(model7, k, j)[0]

    def test_equal_labels_rejected(self, model7):
        with pytest.raises(ValueError):
            is_z_adjacent(model7, 3, 3)


class TestConnects:
    def test_worked_example(self, model7):
        assert connects(model7, 3, 5)

    def test_morse_condition(self, model7):
        assert not connects(model7, 5, 3)

    def test_blocked(self, model7):
        assert not connects(model7, 2, 5)

    def test_window_pair_of_15(self, perm15):
        model = build_model(perm15)
        assert connects(model, 3, 8)


class TestConnectionGraph:
    def test_structure(self, model7):
        g = connection_graph(model7)
        assert isinstance(g, nx.DiGraph)
        assert set(g.edges) == EDGES7
        assert g.nodes[3]["morse"] == 2
        assert set(g.successors(3)) == {1, 2, 4, 5, 6, 7}
        sources = [v for v in g if g.in_degree(v) == 0]
        assert sources == [3]

    def test_identity_path_shape(self):
        g = connection_graph(build_model(identity(3)))
        assert sorted(g.edges) == [(2, 1), (2, 3)]

    def test_deterministic_order(self, model7):
        g1, g2 = connection_graph(model7), connection_graph(model7)
        assert list(g1.nodes) == list(g2.nodes) == list(range(1, 8))
        assert list(g1.edges) == list(g2.edges)


class TestBoundaryNeighbors:
    def test_worked_example(self, model7):
        assert boundary_neighbors(model7, 3) == NeighborQuartet(2, 4, 6, 2)

    def test_extreme_equilibrium(self, model7):
        q = boundary_neighbors(model7, 1)
        assert q.w0_minus is None and q.w1_minus is None
        assert q.w0_plus == 2 and q.w1_plus == 4

    def test_fifteen_crossing(self, perm15):
        model = build_model(perm15)
        assert boundary_neighbors(model, 3) == NeighborQuartet(2, 4, 10, 2)

    def test_out_of_range(self, model7):
        with pytest.raises(ValueError):
            boundary_neighbors(model7, 8)

    def test_morse_dichotomy(self, pool):
        for p in pool[7]:
            model = build_model(p)
            for base in range(1, p.n + 1):
                for w in boundary_neighbors(model, base):
                    if w is not None:
                        assert abs(model.morse[w - 1] - model.morse[base - 1]) == 1


class TestTargetSets:
    def test_worked_example(self, model7):
        assert target_set(model7, 3, 1, "+") == {4, 5, 6}
        assert target_set(model7, 3, 1, "-") == {2}
        assert target_set(model7, 3, 0, "+") == {7}
        assert target_set(model7, 3, 0, "-") == {1}

    def test_fifteen_crossing(self, perm15):
        model = build_model(perm15)
        assert target_set(model, 3, 1, "+") == {4, 7, 8, 9, 10}

    def test_stable_base_rejected(self, model7):
        with pytest.raises(ValueError):
            target_set(model7, 1, 0, "+")

    def test_level_out_of_range(self, model7):
        with pytest.raises(ValueError):
            target_set(model7, 3, 2, "+")


class TestMinimax:
    def test_worked_example(self, model7):
        assert minimax(model7, 3, 1, "+") == MinimaxExtrema(
            closest_at_0=4, closest_at_1=6, farthest_at_0=6, farthest_at_1=4
        )

    def test_singleton_set(self, model7):
        assert minimax(model7, 3, 1, "-") == MinimaxExtrema(2, 2, 2, 2)

    def test_fifteen_crossing(self, perm15):
        model = build_model(perm15)
        ex = minimax(model, 3, 1, "+")
        assert ex.closest_at_0 == ex.farthest_at_1 == 4
        assert ex.closest_at_1 == ex.farthest_at_0 == 10

    def test_empty_set_rejected(self, model7, monkeypatch):
        monkeypatch.setattr(sturm.attractor, "target_set", lambda *a: set())
        with pytest.raises(ValueError):
            minimax(model7, 3, 1, "+")


class TestIdentifyNeighbors:
    def test_even_morse_number_swaps_right_boundary_signs(self, model7):
        idents = identify_neighbors(model7, 3)
        assert idents["w1_minus"].sign == "+" and idents["w1_minus"].predicted == 6
        assert idents["w1_plus"].sign == "-" and idents["w1_plus"].predicted == 2
        assert idents["w0_plus"].sign == "+" and idents["w0_plus"].predicted == 4
        assert idents["w0_minus"].sign == "-" and idents["w0_minus"].predicted == 2
        assert all(i.matches for i in idents.values() if i.applicable)

    def test_odd_morse_number_keeps_right_boundary_signs(self, perm7):
        # the suspended image of the reference equilibrium has Morse 3
        model = build_model(suspend(perm7).suspended)
        idents = identify_neighbors(model, 4)
        assert model.morse[3] == 3
        assert idents["w1_minus"].applicable and idents["w1_minus"].sign == "-"
        assert idents["w1_plus"].applicable and idents["w1_plus"].sign == "+"
        assert all(i.matches for i in idents.values() if i.applicable)

    def test_more_unstable_neighbor_not_applicable(self):
        # the Morse-1 equilibrium between two Morse-0 and one Morse-2
        p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
        model = build_model(p)
        idents = identify_neighbors(model, 2)
        # neighbor 3 is one level more unstable than equilibrium 2
        assert idents["w0_plus"].neighbor == 3
        assert not idents["w0_plus"].applicable

    def test_stable_base_rejected(self, model7):
        with pytest.raises(ValueError):
            identify_neighbors(model7, 1)


class TestTheorem:
    def test_worked_example_all_cases_pass(self, model7):
        verdict = verify_minimax_theorem(model7, 3)
        assert verdict.n == 2
        assert len(verdict.applicable_cases) == 4
        assert verdict.passed
        by_slot = {c.slot: c for c in verdict.cases}
        assert by_slot["w1_minus"].closest == 6
        assert by_slot["w1_minus"].farthest_opposite == 6
        assert all(c.neighbor_is_closest for c in verdict.applicable_cases)

    def test_minimal_unstable(self):
        verdict = verify_minimax_theorem(build_model(identity(3)), 2)
        assert verdict.passed and len(verdict.applicable_cases) == 4

    def test_fifteen_crossing(self, perm15):
        verdict = verify_minimax_theorem(build_model(perm15), 3)
        assert verdict.passed

    def test_extended_checks_cover_all_levels(self, model7):
        verdict = verify_minimax_theorem(model7, 3)
        assert {(e.k, e.sign) for e in verdict.extended} == {
            (0, "+"),
            (0, "-"),
            (1, "+"),
            (1, "-"),
        }
        assert verdict.extended_passed

    def test_stable_base_rejected(self, model7):
        with pytest.raises(ValueError):
            verify_minimax_theorem(model7, 1)


class TestMinimaxReport:
    def test_fields(self, model7):
        report = minimax_report(model7, 3)
        assert report.base == 3 and report.n == 2
        assert report.target_sets["1+"] == (4, 5, 6)
        assert report.extrema["1+"].closest_at_0 == 4
        assert report.verdict.passed

    def test_stable_base_rejected(self, model7):
        with pytest.raises(ValueError):
            minimax_report(model7, 7)


@pytest.fixture(scope="module")
def family11():
    """All Sturm permutations of size 1..11."""
    return tuple(p for n in range(1, 12, 2) for p in enumerate_sturm(n))


def _assert_matches_scan(model):
    assert set(model.connections) == scalar_connections(model)
    for base in model.unstable():
        for k in range(model.morse[base - 1]):
            for sign in ("+", "-"):
                assert target_set(model, base, k, sign) == scan_target_set(model, base, k, sign)


class TestAgainstScan:
    """Vectorized connections and bucketed target sets against the
    pair-by-pair scalar criterion."""

    def test_all_small(self, pool, pool9):
        for p in [q for n in (1, 3, 5, 7) for q in pool[n]] + list(pool9):
            _assert_matches_scan(build_model(p))

    def test_large(self, large_inputs):
        for p in large_inputs:
            _assert_matches_scan(build_model(p))


class TestCellInvariants:
    """Signed Thom-Smale cell structure, over every Sturm permutation
    with n <= 11."""

    def test_cell_closure_is_ball(self, family11):
        # Euler characteristic of each closed cell: (-1)^i(v) + sum over targets.
        for p in family11:
            model = build_model(p)
            succ = {j: [] for j in range(1, p.n + 1)}
            for j, k in model.connections:
                succ[j].append(k)
            for v, targets in succ.items():
                chi = (-1) ** model.morse[v - 1] + sum((-1) ** model.morse[w - 1] for w in targets)
                assert chi == 1, (p, v)

    def test_signed_hemispheres(self, family11):
        # Each signed target set closes a hemisphere of dimension k.
        for p in family11:
            model = build_model(p)
            for v in model.unstable():
                for k in range(model.morse[v - 1]):
                    for sign in ("+", "-"):
                        chi = sum((-1) ** model.morse[w - 1] for w in target_set(model, v, k, sign))
                        assert chi == (-1) ** k, (p, v, k, sign)
