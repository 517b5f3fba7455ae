"""Tests for functional-graph construction, component statistics, the k
versus -k comparison, and DOT export."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qkforge.dynamics as dynamics
from qkforge.cm_arith import depths
from qkforge.dynamics import (
    ComponentStats,
    FunctionalGraph,
    build_graph,
    component_stats,
    export_dot,
)
from qkforge.errors import InternalConsistencyError, ResourceCapError, UsageError
from qkforge.extfield import ExtField
from qkforge.ffpoly import ModulusContext, Poly, smallest_irreducible

import oracle
from oracle import check_lemma_kk, is_periodic, is_primitive, node_element

# hand-enumerated successor tables (node 0 = infinity, node 1 + j = element j)
F11_K3_SUCC = (0, 0, 7, 3, 11, 11, 10, 3, 2, 2, 10, 6)
F5_K1_SUCC = (0, 0, 3, 1, 1, 4)


def distances_to_cycle(graph):
    """Distance of every node from the cycle of its component (0 = periodic)."""
    return tuple(dynamics._analyze(graph.successors)[0])


def component_labels(graph):
    """Component id of every node, by each component's smallest node."""
    return tuple(dynamics._analyze(graph.successors)[1])


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------


def test_hand_enumerated_graph_over_f11():
    g = build_graph(11, 1, 3)
    assert g.successors == F11_K3_SUCC
    assert g.size == 12


def test_hand_enumerated_graph_over_f5():
    g = build_graph(5, 1, 1)
    assert g.successors == F5_K1_SUCC
    assert g.size == 6


def test_zero_and_infinity_always_feed_infinity():
    for p, n, k in ((5, 1, 1), (11, 1, 3), (3, 2, 1), (13, 1, 4)):
        g = build_graph(p, n, k)
        assert g.successors[0] == 0
        assert g.successors[1] == 0
        assert g.size == p**n + 1


def test_prime_field_fast_path_matches_generic_path():
    for p in (3, 11, 53):
        tables = dynamics._exp_log_tables(p, 1, Poly((0, 1), p))
        for k in range(1, p):
            assert build_graph(p, 1, k).successors == dynamics._successors(p, *tables, k)


def _matrix_walk_exp(p, n, modulus):
    """exp as the digit-matrix walk made it: s = (q-1)/(p-1) powers of the
    first primitive g, each digit vector times the n x n matrix of y -> y*g,
    then c^t * g^i for the other p - 2 blocks, by field products."""
    field = ExtField(modulus)
    q = field.q
    g = next(x for x in map(field.from_index, range(p, q)) if is_primitive(x))
    rows = list(zip(*[(field.from_index(p**c) * g).rep for c in range(n)]))
    steps = (q - 1) // (p - 1)
    digits = [1] + [0] * (n - 1)
    exp = []
    for _ in range(steps):
        exp.append(sum(d * p**r for r, d in enumerate(digits)))
        digits = [sum(a * b for a, b in zip(row, digits)) % p for row in rows]
    c = field.from_int(digits[0])
    for t in range(1, p - 1):
        ct = c**t
        exp += [field.index_of(ct * field.from_index(j)) for j in exp[:steps]]
    return exp


@pytest.mark.parametrize("p, n", [(3, 6), (3, 7), (5, 6)])
def test_exp_log_tables_match_the_matrix_walk(p, n):
    modulus = smallest_irreducible(p, n)
    exp, log = dynamics._exp_log_tables(p, n, modulus)
    assert list(exp) == _matrix_walk_exp(p, n, modulus)
    assert log[0] == -1 and all(log[j] == i for i, j in enumerate(exp))


def _slow_successors(p, n, modulus):
    """Successor tables for every k mod p by FqElem arithmetic: 0 goes to
    infinity, and x^2 = -1 (x + 1/x = 0) goes to node 1."""
    field = ExtField(modulus)
    sums = [x + x.inverse() for x in map(field.from_index, range(1, field.q))]
    return {
        k: (0, 0, *(1 + field.index_of(field.from_int(k) * s) for s in sums))
        for k in range(1, p)
    }


@pytest.mark.parametrize(
    "p, n, modulus",
    [
        (3, 2, Poly((1, 0, 1), 3)),  # the root of x^2 + 1 has order 4, not 8
        (7, 2, Poly((1, 0, 1), 7)),  # order 4, not 48
        (11, 2, None),
        (5, 3, None),
        (5, 4, None),
        (3, 5, None),
    ],
)
def test_exp_log_successors_match_field_arithmetic(p, n, modulus):
    # every k mod p: each admissible class and the generic multipliers
    modulus = modulus or smallest_irreducible(p, n)
    for k, slow in _slow_successors(p, n, modulus).items():
        assert build_graph(p, n, k, modulus).successors == slow, k


def test_non_primitive_generator_fails_the_walk_check(monkeypatch):
    # accept alpha, the root of x^2 + 1 over F_3, which has order 4 in F_9^*
    monkeypatch.setattr(dynamics, "_is_primitive", lambda ctx, x: True)
    with pytest.raises(InternalConsistencyError):
        build_graph(3, 2, 1, Poly((1, 0, 1), 3))


def test_extension_graph_takes_at_most_n_field_products(monkeypatch):
    # count the products mod the field modulus outside the powers of the
    # primitivity test: the n rows of y -> y*g
    calls = []
    powering = []
    mulmod, powmod = ModulusContext.mulmod, ModulusContext.powmod

    def counted(self, a, b):
        if not powering:
            calls.append(1)
        return mulmod(self, a, b)

    def power(self, base, e):
        powering.append(1)
        try:
            return powmod(self, base, e)
        finally:
            powering.pop()

    monkeypatch.setattr(ModulusContext, "mulmod", counted)
    monkeypatch.setattr(ModulusContext, "powmod", power)
    for k in (7, 15):
        calls.clear()
        assert build_graph(53, 2, k).size == 53**2 + 1
        assert len(calls) <= 2


def test_build_graph_validates_inputs():
    with pytest.raises(UsageError):
        build_graph(10, 1, 3)  # not prime
    with pytest.raises(UsageError, match="^p must be an odd prime, got 2$"):
        build_graph(2, 1, 1)  # the same check as every other layer
    with pytest.raises(UsageError):
        build_graph(11, 0, 3)  # no field
    with pytest.raises(UsageError):
        build_graph(5, 2, 1, modulus=Poly((0, 1), 5))  # degree mismatch
    with pytest.raises(UsageError):
        build_graph(5, 2, 1, modulus=Poly((4, 0, 1), 5))  # x^2 - 1 reducible
    with pytest.raises(UsageError):
        build_graph(5, 2, 1, modulus=Poly((1, 0, 1), 3))  # wrong prime


def test_build_graph_respects_the_cap(monkeypatch):
    monkeypatch.setenv("QKFORGE_CAP", "100")
    with pytest.raises(ResourceCapError):
        build_graph(101, 1, 5)
    monkeypatch.delenv("QKFORGE_CAP")
    build_graph(101, 1, 5)


# ---------------------------------------------------------------------------
# component statistics
# ---------------------------------------------------------------------------


def test_component_stats_of_f11_graph():
    g = build_graph(11, 1, 3)
    assert component_stats(g) == [
        ComponentStats(cycle_length=1, tree_depth=1, node_count=2, binary_shape_ok=True),
        ComponentStats(cycle_length=1, tree_depth=3, node_count=5, binary_shape_ok=True),
        ComponentStats(cycle_length=1, tree_depth=3, node_count=5, binary_shape_ok=True),
    ]
    assert distances_to_cycle(g) == (0, 1, 2, 0, 3, 3, 1, 1, 3, 3, 0, 2)
    assert component_labels(g) == (0, 0, 1, 1, 2, 2, 2, 1, 1, 1, 2, 2)


def test_component_stats_of_f5_graph():
    g = build_graph(5, 1, 1)
    assert component_stats(g) == [
        ComponentStats(cycle_length=1, tree_depth=3, node_count=6, binary_shape_ok=True),
    ]


def test_component_stats_of_f9_graph():
    g = build_graph(3, 2, 1)
    assert g.successors == (0, 0, 3, 2, 1, 7, 7, 1, 4, 4)
    assert component_stats(g) == [
        ComponentStats(cycle_length=1, tree_depth=3, node_count=8, binary_shape_ok=True),
        ComponentStats(cycle_length=2, tree_depth=0, node_count=2, binary_shape_ok=True),
    ]


def test_infinity_component_is_listed_first_and_contains_zero():
    for p, n, k in ((5, 1, 1), (11, 1, 3), (13, 1, 4), (3, 2, 1)):
        g = build_graph(p, n, k)
        stats = component_stats(g)
        assert stats[0].node_count >= 2
        assert stats[0].tree_depth >= 1
        # the element 0 sits one step before infinity's cycle
        assert component_labels(g)[1] == 0
        assert distances_to_cycle(g)[1] == 1


def test_component_node_counts_partition_the_graph():
    for p, n, k in ((11, 1, 3), (13, 1, 4), (3, 2, 1), (53, 1, 15)):
        g = build_graph(p, n, k)
        assert sum(s.node_count for s in component_stats(g)) == g.size


def test_tree_depths_match_the_predicted_pair():
    for p, n, k in ((11, 1, 3), (5, 1, 1), (13, 1, 4), (53, 1, 15), (53, 1, 7), (11, 2, 2)):
        dp = depths(p, k, n)
        for s in component_stats(build_graph(p, n, k)):
            assert s.tree_depth in (dp.e0, dp.e1)
            assert s.binary_shape_ok


def test_zero_multiplier_is_rejected():
    with pytest.raises(UsageError):
        build_graph(5, 1, 0)
    with pytest.raises(UsageError):
        build_graph(5, 1, 10)  # 10 = 0 mod 5


def test_rewired_graph_breaks_the_binary_shape():
    # move one tree node onto the fixed point 2: it then feeds two trees
    succ = list(F11_K3_SUCC)
    succ[4] = 3
    forged = FunctionalGraph(p=11, n=1, k=3, modulus=Poly((0, 1), 11),
                             successors=tuple(succ))
    stats = component_stats(forged)
    assert any(not s.binary_shape_ok for s in stats)


def _reference_analysis(graph):
    """Per-node reference for component_stats, distances_to_cycle and
    component_labels: walk each node's orbit to its cycle, then apply the
    two shape rules separately, tree preimages on cycle nodes and every leaf
    at full depth, with the ramified targets found by field arithmetic."""
    succ = graph.successors
    size = len(succ)
    dist, cycles = [], []
    for x in range(size):
        seen = {}
        while x not in seen:
            seen[x] = len(seen)
            x = succ[x]
        dist.append(seen[x])
        cycles.append(frozenset(y for y, i in seen.items() if i >= seen[x]))
    ids = {}
    labels = [ids.setdefault(c, len(ids)) for c in cycles]
    field = ExtField(graph.modulus)
    ramified = {1 + field.index_of(field.from_int(c * graph.k)) for c in (2, -2)}
    pre_total = [sum(1 for y in succ if y == x) for x in range(size)]
    pre_tree = [sum(1 for y in range(size) if succ[y] == x and dist[y] > 0)
                for x in range(size)]
    stats = []
    for c in range(len(ids)):
        nodes = [x for x in range(size) if labels[x] == c]
        depth = max(dist[x] for x in nodes)
        ok = True
        for x in nodes:
            if dist[x] == 0:
                ok &= pre_tree[x] == 1 or (pre_tree[x] == 0 and x in ramified)
            else:
                ok &= pre_total[x] in (0, 2) or (pre_total[x] == 1 and x in ramified)
                ok &= pre_total[x] != 0 or dist[x] == depth
        stats.append(ComponentStats(cycle_length=sum(dist[x] == 0 for x in nodes),
                                    tree_depth=depth, node_count=len(nodes),
                                    binary_shape_ok=ok))
    return stats, tuple(dist), tuple(labels)


def _assert_matches_reference(graph):
    assert (component_stats(graph), distances_to_cycle(graph),
            component_labels(graph)) == _reference_analysis(graph)


@st.composite
def _arbitrary_graphs(draw):
    size = draw(st.integers(1, 40))
    succ = draw(st.lists(st.integers(0, size - 1), min_size=size, max_size=size))
    p = draw(st.sampled_from((3, 5, 7, 11, 13)))
    k = draw(st.integers(1, p - 1))
    return FunctionalGraph(p=p, n=1, k=k, modulus=Poly((0, 1), p), successors=tuple(succ))


@st.composite
def _rewired_theta_graphs(draw):
    p, n = draw(st.sampled_from(((3, 1), (5, 1), (11, 1), (13, 1), (29, 1), (53, 1),
                                 (3, 2), (5, 2), (7, 2), (3, 3))))
    k = draw(st.integers(1, p - 1))
    graph = build_graph(p, n, k)
    succ = list(graph.successors)
    nodes = st.integers(0, graph.size - 1)
    for x, y in draw(st.lists(st.tuples(nodes, nodes), max_size=3)):
        succ[x] = y
    return FunctionalGraph(p=p, n=n, k=k, modulus=graph.modulus, successors=tuple(succ))


@settings(derandomize=True, database=None, max_examples=300)
@given(_arbitrary_graphs())
def test_analysis_matches_reference_on_arbitrary_graphs(graph):
    _assert_matches_reference(graph)


@settings(derandomize=True, database=None, max_examples=150)
@given(_rewired_theta_graphs())
def test_analysis_matches_reference_on_rewired_theta_graphs(graph):
    _assert_matches_reference(graph)


def test_component_stats_validates_its_own_invariants():
    with pytest.raises(InternalConsistencyError):
        ComponentStats(cycle_length=0, tree_depth=0, node_count=1, binary_shape_ok=True)
    with pytest.raises(InternalConsistencyError):
        ComponentStats(cycle_length=3, tree_depth=0, node_count=2, binary_shape_ok=True)


# ---------------------------------------------------------------------------
# consistency with orbit walking
# ---------------------------------------------------------------------------


def test_graph_distances_agree_with_orbit_walker():
    g = build_graph(11, 1, 3)
    dist = distances_to_cycle(g)
    field = ExtField(g.modulus)
    for i in range(g.size):
        beta = node_element(field, i)
        periodic, tail, _ = is_periodic(beta, 3)
        assert tail == dist[i]
        assert periodic == (dist[i] == 0)


def test_graph_distances_agree_with_orbit_walker_in_extension_field():
    g = build_graph(3, 2, 1)
    dist = distances_to_cycle(g)
    field = ExtField(g.modulus)
    for i in range(1, g.size):
        _, tail, _ = is_periodic(node_element(field, i), 1)
        assert tail == dist[i]


# ---------------------------------------------------------------------------
# the k versus -k comparison
# ---------------------------------------------------------------------------


def test_even_iterates_agree_for_reference_field():
    assert check_lemma_kk(53, 1, 7, 10) is True


def test_even_iterates_agree_on_small_fields():
    assert check_lemma_kk(11, 1, 2, 5) is True
    assert check_lemma_kk(11, 2, 2, 5) is True
    assert check_lemma_kk(13, 1, 4, 5) is True


def test_zero_rounds_is_trivially_true():
    assert check_lemma_kk(53, 1, 7, 0) is True


def test_negative_rounds_is_rejected():
    with pytest.raises(UsageError):
        check_lemma_kk(53, 1, 7, -1)


def test_single_iterates_differ_between_k_and_minus_k():
    assert build_graph(11, 1, 3).successors != build_graph(11, 1, 8).successors


def _count_rabin(monkeypatch) -> list:
    original = sys.modules["qkforge.ffpoly"].is_irreducible
    calls = []

    def counted(f):
        calls.append(f)
        return original(f)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "qkforge" and getattr(mod, "is_irreducible", None) is original:
            monkeypatch.setattr(mod, "is_irreducible", counted)
    return calls


def test_lemma_check_resolves_the_modulus_once(monkeypatch):
    modulus = smallest_irreducible(11, 2)
    rabin = _count_rabin(monkeypatch)
    assert check_lemma_kk(11, 2, 2, 3, modulus) is True
    assert rabin == [modulus]
    rabin.clear()
    smallest_irreducible(11, 2)
    alone = len(rabin)
    rabin.clear()
    assert check_lemma_kk(11, 2, 2, 3) is True
    assert len(rabin) == alone  # no test of the modulus smallest_irreducible made


def test_lemma_check_respects_the_cap(monkeypatch):
    monkeypatch.setenv("QKFORGE_CAP", "50")
    with pytest.raises(ResourceCapError):
        check_lemma_kk(53, 1, 7, 3)


def test_huge_degree_is_refused_before_p_to_the_n():
    # 3^(10^8) alone would take minutes to compute
    with pytest.raises(ResourceCapError):
        check_lemma_kk(3, 10**8, 1, 1)
    with pytest.raises(ResourceCapError):
        build_graph(3, 10**8, 1)


def test_lemma_check_rejects_forged_tables(monkeypatch):
    def forged(pos, neg):
        monkeypatch.setattr(oracle, "_successor_tables",
                            lambda p, n, modulus, ks: [pos, neg])
        return check_lemma_kk(11, 1, 3, 5)

    assert forged((0, 0, 0), (0, 0, 0)) is True
    assert forged((0, 0, 0), (0, 1, 1)) is False  # second iterates differ at 1
    # same second iterates, but node 2 sits two steps from the cycle under -k
    # and one step under k
    assert forged((0, 0, 0), (0, 0, 1)) is False
    assert forged((0, 0, 1), (0, 0, 0)) is True


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

F5_DOT = """digraph qkforge {
  "inf";
  "0";
  "1";
  "2";
  "3";
  "4";
  "inf" -> "inf";
  "0" -> "inf";
  "1" -> "2";
  "2" -> "0";
  "3" -> "0";
  "4" -> "3";
}
"""


def test_dot_export_exact_text():
    g = build_graph(5, 1, 1)
    assert export_dot(g) == F5_DOT


def test_dot_export_is_deterministic():
    a = export_dot(build_graph(13, 1, 4))
    b = export_dot(build_graph(13, 1, 4))
    assert a == b


def test_dot_export_counts_one_edge_per_node():
    g = build_graph(5, 1, 1)
    assert export_dot(g).count("->") == g.size == 6


def test_dot_export_renders_infinity_as_inf():
    assert '"inf" -> "inf";' in export_dot(build_graph(11, 1, 3))


def test_dot_export_labels_variant():
    g = build_graph(5, 1, 1)
    text = export_dot(g, labels=True)
    assert '"inf" [label="inf"];' in text
    assert '"2" [label="2"];' in text


def test_node_names_are_the_coefficients_of_the_field_element():
    for p, n in ((7, 1), (5, 2), (3, 3)):
        g = build_graph(p, n, 1)
        field = ExtField(g.modulus)
        names = [",".join(map(str, node_element(field, i).rep)) if n > 1 else str(i - 1)
                 for i in range(1, g.size)]
        assert [g.node_name(i) for i in range(g.size)] == ["inf", *names]


def test_dot_export_extension_field_names():
    g = build_graph(3, 2, 1)
    text = export_dot(g, labels=True)
    assert '"0,1" [label="a"];' in text
    assert '"2,1" [label="2+a"];' in text
    assert '"0,0" [label="0"];' in text
