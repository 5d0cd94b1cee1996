import sys

import networkx as nx
import pytest

import sturm.attractor
from conftest import PERM7, _suspended
from oracles import (
    distance_extrema,
    numpy_blockers,
    paper_cases,
    scalar_connections,
    scan_connections,
    scan_target_set,
)
from sturm import (
    AttractorModel,
    MinimaxExtrema,
    NeighborQuartet,
    SturmPermutation,
    apply_kappa,
    apply_tau,
    boundary_neighbors,
    build_model,
    connection_graph,
    enumerate_sturm,
    identity,
    is_z_adjacent,
    minimax,
    minimax_report,
    suspend,
    target_set,
)
from sturm.attractor import _analyze, _Grown
from sturm.harness import _levels
from sturm.report import analyze_record, dot_graph

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

    def test_model_is_read_only_and_compares_by_identity(self, model7):
        with pytest.raises(AttributeError):
            model7.successors = ()
        with pytest.raises(AttributeError):
            model7.p = identity(7)
        assert model7.successors[3] == (1, 2, 4, 5, 6, 7)
        assert model7 == model7 and model7 != build_model(model7.p)

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

    def test_witness_matches_the_numpy_oracle(self, large_inputs):
        # every Morse-dropping ordered pair of every member up to n = 11 and
        # of the larger fixtures: the same verdict and the same smallest
        # blocking label as the whole-row numpy scan
        members = [p for n in range(1, 12, 2) for p in enumerate_sturm(n)]
        for p in members + list(large_inputs):
            model = build_model(p)
            expected = numpy_blockers(p)
            assert expected or p.n == 1
            for (j, k), w in expected.items():
                assert is_z_adjacent(model, j, k) == (w is None, w), (p, j, k)

    def test_equal_labels_rejected(self, model7):
        with pytest.raises(ValueError):
            is_z_adjacent(model7, 3, 3)

    @pytest.mark.parametrize("j, k", [(0, 3), (3, 0), (8, 3), (3, 8)])
    def test_labels_out_of_range(self, model7, j, k):
        with pytest.raises(ValueError, match=r"^label [jk]=(0|8) out of range 1\.\.7$"):
            is_z_adjacent(model7, j, k)


class TestConnects:
    # The connection criterion (Morse drop plus z-adjacency) on worked
    # pairs, read off the model's successors.
    def test_worked_example(self, model7):
        assert 5 in model7.successors[3]
        assert is_z_adjacent(model7, 3, 5) == (True, None)

    def test_morse_condition(self, model7):
        # z-adjacent, but the Morse number rises from 5 to 3
        assert is_z_adjacent(model7, 5, 3) == (True, None)
        assert 3 not in model7.successors[5]

    def test_blocked(self, model7):
        # the Morse number drops from 2 to 5, but 3 blocks the pair
        assert model7.morse[1] > model7.morse[4]
        assert is_z_adjacent(model7, 2, 5) == (False, 3)
        assert 5 not in model7.successors[2]

    def test_window_pair_of_15(self, perm15):
        model = build_model(perm15)
        assert 8 in model.successors[3]


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

    def test_edges_in_label_order(self, large_inputs):
        for p in large_inputs:
            model = build_model(p)
            assert list(connection_graph(model).edges) == sorted(model.connections), p

    def test_missing_networkx_names_the_extra(self, model7, monkeypatch):
        # A None entry makes `import networkx` fail as if it were not installed.
        monkeypatch.setitem(sys.modules, "networkx", None)
        with pytest.raises(ImportError) as exc_info:
            connection_graph(model7)
        assert str(exc_info.value) == 'connection_graph needs networkx: pip install "sturm[graph]"'


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

    @pytest.mark.parametrize("base", [-4, 0, 8])
    def test_base_out_of_range(self, model7, base):
        # -4 used to give an empty set and 8 an IndexError
        with pytest.raises(ValueError, match=rf"^label base={base} out of range 1\.\.7$"):
            target_set(model7, base, 0, "+")

    @pytest.mark.parametrize("func", [target_set, minimax])
    @pytest.mark.parametrize("sign", ["x", "", "+-", None])
    def test_bad_sign_rejected(self, model7, func, sign):
        # "x" used to give an empty set, and minimax a misleading "empty" error
        with pytest.raises(ValueError) as exc_info:
            func(model7, 3, 1, sign)
        assert str(exc_info.value) == f"sign {sign!r} is not '+' or '-'"


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


def _cases(model, base):
    return {c.slot: c for c in minimax_report(model, base).cases}


class TestIdentifyNeighbors:
    def test_even_morse_number_swaps_right_boundary_signs(self, model7):
        cases = _cases(model7, 3)
        assert cases["w1_minus"].sign == "+" and cases["w1_minus"].closest == 6
        assert cases["w1_plus"].sign == "-" and cases["w1_plus"].closest == 2
        assert cases["w0_plus"].sign == "+" and cases["w0_plus"].closest == 4
        assert cases["w0_minus"].sign == "-" and cases["w0_minus"].closest == 2
        assert all(c.neighbor_is_closest for c in cases.values() if c.applicable)

    def test_odd_morse_number_keeps_right_boundary_signs(self, perm7):
        # the suspended image of the reference equilibrium has Morse 3
        model = build_model(suspend(perm7).suspended)
        cases = _cases(model, 4)
        assert model.morse[3] == 3
        assert cases["w1_minus"].applicable and cases["w1_minus"].sign == "-"
        assert cases["w1_plus"].applicable and cases["w1_plus"].sign == "+"
        assert all(c.neighbor_is_closest for c in cases.values() if c.applicable)

    def test_more_unstable_neighbor_not_applicable(self):
        # the Morse-1 equilibrium between two Morse-0 and one Morse-2
        p = SturmPermutation((1, 4, 5, 6, 3, 2, 7))
        model = build_model(p)
        cases = _cases(model, 2)
        # neighbor 3 is one level more unstable than equilibrium 2
        assert cases["w0_plus"].neighbor == 3
        assert not cases["w0_plus"].applicable
        assert cases["w0_plus"].passed is None
        assert cases["w0_plus"].neighbor_is_closest is None


class TestTheorem:
    def test_worked_example_all_cases_pass(self, model7):
        report = minimax_report(model7, 3)
        assert report.n == 2
        assert len(report.applicable_cases) == 4
        assert report.passed
        by_slot = {c.slot: c for c in report.cases}
        assert by_slot["w1_minus"].closest == 6
        assert by_slot["w1_minus"].farthest_opposite == 6
        assert all(c.neighbor_is_closest for c in report.applicable_cases)

    def test_minimal_unstable(self):
        report = minimax_report(build_model(identity(3)), 2)
        assert report.passed and len(report.applicable_cases) == 4

    def test_fifteen_crossing(self, perm15):
        report = minimax_report(build_model(perm15), 3)
        assert report.passed

    def test_extended_checks_cover_all_levels(self, model7):
        report = minimax_report(model7, 3)
        levels = {"0+", "0-", "1+", "1-"}
        assert set(report.target_sets) == levels
        assert set(report.extrema) == levels
        assert report.extended_passed

    def test_large_inputs(self, large_inputs):
        # every unstable equilibrium up to n=61, concatenations included
        for p in large_inputs:
            model = build_model(p)
            for base in model.unstable():
                report = minimax_report(model, base)
                assert report.passed and report.extended_passed, (p, base)


class TestMinimaxReport:
    def test_fields(self, model7):
        report = minimax_report(model7, 3)
        assert report.base == 3 and report.n == 2
        assert report.target_sets["1+"] == (4, 5, 6)
        assert report.extrema["1+"].closest_at_0 == 4
        assert report.passed

    def test_stable_base_rejected(self, model7):
        with pytest.raises(ValueError):
            minimax_report(model7, 7)

    @pytest.mark.parametrize("base", [-1, 0, 8])
    def test_base_out_of_range(self, model7, base):
        with pytest.raises(ValueError, match=rf"^label base={base} out of range 1\.\.7$"):
            minimax_report(model7, base)

    def test_empty_associated_target_set_rejected(self, model7):
        # without the connection 3 -> 2, level 1- of 3 is empty, and the
        # left neighbor 2 (Morse 1, own sign -) has nothing to read
        succ = list(model7.successors)
        succ[3] = tuple(w for w in succ[3] if w != 2)
        model = AttractorModel(model7.p, model7.morse, model7.z, tuple(succ))
        with pytest.raises(ValueError, match=r"^target set 1- of 3 is empty$"):
            minimax_report(model, 3)


def _reports(p):
    model = build_model(p)
    return {base: minimax_report(model, base) for base in model.unstable()}


class TestLevels:
    def test_rule_parts(self, model7):
        report = minimax_report(model7, 3)
        assert _levels(report) == {
            key: (report.target_sets[key], ex) for key, ex in report.extrema.items()
        }
        assert _levels(report)["1+"] == ((4, 5, 6), MinimaxExtrema(4, 6, 6, 4))
        image = _levels(report, lambda w: 10 * w, flips=lambda k: k == 1, swap=True)
        assert set(image) == {"0+", "0-", "1+", "1-"}
        assert image["1-"] == ((40, 50, 60), MinimaxExtrema(60, 40, 40, 60))

    def test_klein_equivariance_at_every_level(self, large_inputs):
        # Boundary swap: labels to axis positions, signs flip at odd
        # levels, boundaries exchange. Flip: labels reversed, signs flip.
        for p in large_inputs:
            reports = _reports(p)

            def tau(w):
                return p.inv[w - 1]

            def kappa(w):
                return p.n + 1 - w

            assert {
                tau(b): _levels(r, tau, flips=lambda k: k % 2 == 1, swap=True)
                for b, r in reports.items()
            } == {b: _levels(r) for b, r in _reports(apply_tau(p)).items()}, p
            assert {
                kappa(b): _levels(r, kappa, flips=lambda k: True) for b, r in reports.items()
            } == {b: _levels(r) for b, r in _reports(apply_kappa(p)).items()}, p


@pytest.fixture(scope="module")
def family11():
    """All Sturm permutations of size 1..11."""
    return tuple(p for n in range(1, 12, 2) for p in enumerate_sturm(n))


def _assert_matches_scan(model):
    assert model.connections == scan_connections(model.p) == scalar_connections(model)
    for base in model.unstable():
        for k in range(model.morse[base - 1]):
            for sign in ("+", "-"):
                assert target_set(model, base, k, sign) == scan_target_set(model, base, k, sign)


class TestAgainstScan:
    """Connections built by cascade against the vectorized scan and the
    pair-by-pair scalar criterion, and bucketed target sets against a
    scan over every label."""

    def test_all_small(self, family11):
        for p in family11:
            _assert_matches_scan(build_model(p))

    def test_large(self, large_inputs):
        for p in large_inputs:
            _assert_matches_scan(build_model(p))


def _assert_extrema_match_oracle(model):
    for base in model.unstable():
        report = minimax_report(model, base)
        assert list(report.extrema) == [key for key, ws in report.target_sets.items() if ws]
        for key, members in report.target_sets.items():
            if not members:
                continue
            want = distance_extrema(model.p, base, set(members))
            assert report.extrema[key] == want, (model.p, base, key)
            # a one-member level takes the process-wide extrema, a larger one its own
            shared = report.extrema[key] is sturm.attractor._SINGLETONS.items[members[0]]
            assert shared == (len(members) == 1), (model.p, base, key)
            assert minimax(model, base, int(key[:-1]), key[-1]) == want, (model.p, base, key)


class TestExtremaAgainstOracle:
    """The extrema read off ascending members against key-based min/max
    over each level, through ``minimax_report`` and ``minimax``."""

    def test_all_small(self, family11):
        for p in family11:
            _assert_extrema_match_oracle(build_model(p))

    def test_large(self, large_inputs):
        for p in large_inputs:
            _assert_extrema_match_oracle(build_model(p))


class TestCasesAgainstOracle:
    """The cases of every unstable base against the paper's rule: own sign
    at the left boundary, swapped at the right one for an even Morse
    number, extrema from key-based min/max over a scanned target set."""

    @staticmethod
    def _assert_cases(model):
        for base in model.unstable():
            assert minimax_report(model, base).cases == paper_cases(model, base), (model.p, base)

    def test_all_small(self, family11):
        for p in family11:
            self._assert_cases(build_model(p))

    def test_large(self, large_inputs):
        for p in large_inputs:
            self._assert_cases(build_model(p))


class TestSharedTables:
    """The one-member extrema and the level names come from process-wide
    tables that grow with the largest model analyzed so far, so a model
    gets the same reports after a larger model as after a smaller one."""

    @pytest.mark.parametrize("times", [(1, 12, 1), (12, 1, 12)], ids=["small-first", "large-first"])
    def test_models_in_either_order(self, monkeypatch, times):
        # from empty tables; monkeypatch puts the grown ones back after
        monkeypatch.setattr(sturm.attractor._SINGLETONS, "items", ())
        monkeypatch.setattr(sturm.attractor._LEVEL_NAMES, "items", ())
        for t in times:
            model = build_model(_suspended(SturmPermutation(PERM7), t))  # n = 9 or 31
            _assert_extrema_match_oracle(model)
            TestCasesAgainstOracle._assert_cases(model)
        assert len(sturm.attractor._SINGLETONS.items) == 32

    def test_growth_keeps_every_entry(self):
        table = _Grown(lambda i: [i])
        small = table.upto(3)
        assert small == ([0], [1], [2]) and table.items is small
        # a smaller size returns the table as it is, never shorter
        assert table.upto(1) is small and table.upto(0) is small
        large = table.upto(7)
        assert large == tuple([i] for i in range(7)) and table.items is large
        # each old entry stays the same object, and a tie grows nothing
        assert all(a is b for a, b in zip(small, large))
        assert table.upto(7) is large


def test_extended_property_swaps_only_the_extremes():
    # The extended property holds at this level, but only its extremes
    # swap between the boundaries: the order by x = 1 distance is not the
    # x = 0 order reversed. A check of whole reversed orders would be wrong.
    p = SturmPermutation((1, 10, 3, 4, 9, 6, 7, 8, 5, 2, 11))
    report = minimax_report(build_model(p), 4)
    members = report.target_sets["2+"]
    assert members == (5, 6, 7, 8, 9)
    assert report.extrema["2+"] == MinimaxExtrema(5, 9, 9, 5)
    assert report.extended_passed
    by_x1 = sorted(members, key=lambda w: abs(p.inv[w - 1] - p.inv[4 - 1]))
    assert by_x1 == [9, 6, 7, 8, 5]
    assert by_x1 != list(reversed(members))


@pytest.mark.slow
def test_extended_property_at_every_base_of_n15():
    # Exhaustive at n = 15: the theorem (passed) and the extended property
    # at every non-empty signed level (extended_passed) hold at every
    # unstable base. Only levels of two or more members can fail the
    # latter; their count pins how much the scan checks.
    members = bases = levels = failed = extended_failed = 0
    for p in enumerate_sturm(15, bound=15):
        members += 1
        for report in _analyze(p)[1].values():
            bases += 1
            levels += sum(len(ws) > 1 for ws in report.target_sets.values())
            failed += not report.passed
            extended_failed += not report.extended_passed
    assert (members, bases, levels, failed, extended_failed) == (7342, 82150, 24044, 0, 0)


class TestSuccessorStore:
    """The per-source successor tuples are the one stored form of the
    connection set; the frozenset is derived from them on demand."""

    @staticmethod
    def _assert_store(model):
        succ = model.successors
        assert len(succ) == model.n + 1 and succ[0] == ()
        for j in range(1, model.n + 1):
            assert all(a < b for a, b in zip(succ[j], succ[j][1:])), (model.p, j)
            if model.morse[j - 1] == 0:
                assert succ[j] == (), (model.p, j)
        flat = [(j, k) for j, ks in enumerate(succ) for k in ks]
        assert flat == list(model.edges()) == sorted(model.connections)
        assert flat == sorted(scan_connections(model.p)), model.p

    def test_all_small(self, family11):
        for p in family11:
            self._assert_store(build_model(p))

    def test_large(self, large_inputs):
        for p in large_inputs:
            self._assert_store(build_model(p))

    def test_reports_leave_the_set_unbuilt(self, large_inputs):
        for p in large_inputs:
            model = build_model(p)
            analyze_record(model)
            dot_graph(model)
            for base in model.unstable():
                minimax_report(model, base)
            assert "connections" not in model.__dict__, p
            assert model.connections == frozenset(model.edges())
            assert "connections" in model.__dict__


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

    def test_euler_characteristic(self, family11):
        # The attractor is contractible: sum over all equilibria of (-1)^i = 1.
        for p in family11:
            assert sum((-1) ** i for i in p.morse) == 1, p

    def test_connections_are_transitive_closure_of_drop_one_edges(self, family11):
        # Cascading and transitivity: j reaches k exactly along a chain of
        # connections that each drop the Morse number by one. build_model
        # relies on this, so the scan, which does not, is checked too.
        for p in family11:
            for connections in (build_model(p).connections, scan_connections(p)):
                reach = {j: set() for j in range(1, p.n + 1)}
                for j, k in connections:
                    if p.morse[j - 1] == p.morse[k - 1] + 1:
                        reach[j].add(k)
                # sources in ascending Morse order, so targets' closures are complete
                for j in sorted(reach, key=lambda v: p.morse[v - 1]):
                    reach[j] |= {w for k in list(reach[j]) for w in reach[k]}
                closure = {(j, k) for j, ks in reach.items() for k in ks}
                assert closure == set(connections), p

    def test_signed_hemispheres(self, family11):
        # Each signed target set closes a hemisphere of dimension k.
        for p in family11:
            model = build_model(p)
            for v in model.unstable():
                for k in range(model.morse[v - 1]):
                    for sign in ("+", "-"):
                        chi = sum((-1) ** model.morse[w - 1] for w in target_set(model, v, k, sign))
                        assert chi == (-1) ** k, (p, v, k, sign)
