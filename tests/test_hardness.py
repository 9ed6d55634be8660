import hashlib
import random

import pytest

from bsm import gs, hardness
from bsm.generate import random_graph, random_triangle_free_graph
from bsm.hardness import (
    Graph,
    GraphError,
    NotAClique,
    _swap_matching,
    clique_bruteforce,
    parse_graph,
    reduce_clique,
    serialize_graph,
    verify_reduction,
    witness_matching,
)
from bsm.instance import parse_instance, serialize
from bsm.oracle import TooLarge, decide_above_min, enumerate_stable


def planted_graph_7_5():
    """Seven vertices, five edges, triangle on v1 v2 v3."""
    return Graph.build(
        tuple(f"v{i}" for i in range(1, 8)),
        [("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v4", "v5"), ("v6", "v7")],
    )


def test_graph_validation():
    with pytest.raises(ValueError, match="loop"):
        Graph.build(("a", "b"), [("a", "a")])
    with pytest.raises(ValueError, match="duplicate edge"):
        Graph.build(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(ValueError, match="unknown"):
        Graph.build(("a",), [("a", "b")])
    with pytest.raises(ValueError, match="duplicate vertex"):
        Graph.build(("a", "a"), [])


def test_graph_round_trip():
    g = planted_graph_7_5()
    assert parse_graph(serialize_graph(g)) == g
    bare = parse_graph("v2 v1\nv1 v3\n")
    assert bare.vertices == ("v2", "v1", "v3")
    assert bare.edges == (("v2", "v1"), ("v1", "v3"))


def test_clique_bruteforce():
    triangle = Graph.build(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
    assert clique_bruteforce(triangle, 3) == ("a", "b", "c")
    path = Graph.build(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert clique_bruteforce(path, 3) is None
    assert clique_bruteforce(planted_graph_7_5(), 3) == ("v1", "v2", "v3")
    assert clique_bruteforce(path, 1) == ("a",)


def test_reduction_arithmetic_7_5_3():
    art = reduce_clique(planted_graph_7_5(), 3)
    assert not art.fallback
    assert art.delta == 156
    assert len(art.inst.men) == len(art.inst.women) == 181
    assert art.k_hat == 373
    assert art.t == 36
    assert art.inst.target_k == art.k_hat
    opt = gs.optima(art.inst)
    assert opt.o_m == 337 and opt.o_w == 181
    assert art.k_hat - max(opt.o_m, opt.o_w) == art.t


def test_closed_form_optima():
    art = reduce_clique(planted_graph_7_5(), 3)
    opt = gs.optima(art.inst)
    identity = _swap_matching(art, set(), set())
    swapped = _swap_matching(art, set(art.graph.vertices), set(range(len(art.graph.edges))))
    assert opt.mu_m == identity
    assert opt.mu_w == swapped


def test_fallback_small_graph():
    triangle = Graph.build(("a", "b", "c"), [("a", "b"), ("a", "c"), ("b", "c")])
    art = reduce_clique(triangle, 3)
    assert art.fallback
    assert len(art.inst.men) == 0 and art.inst.target_k == 0
    assert decide_above_min(art.inst, 0).answer

    path = Graph.build(("a", "b", "c", "d", "e", "f", "g"), [("a", "b")])
    art = reduce_clique(path, 3)  # delta < 0 for such a sparse graph
    assert art.fallback and art.delta < 0
    assert not decide_above_min(art.inst, 0).answer


@pytest.mark.parametrize(
    "graph, k, delta, contiguous, digest",
    [
        # With fewer than two dummies the rank tables have gaps.
        (Graph.build("abcd", []), 1, 0, False, "1a92b00316fb970b"),
        (Graph.build("abcde", []), 1, 2, True, "889fd5fbffcd15c1"),
        (Graph.build("abcdefg", [("c", "f")]), 2, 2, False, "989dd1b2ee54aada"),
        (random_graph(random.Random(4), 7, 9, plant_triangle=True), 3, 812, True, "41f8dad33a283d08"),
        (random_graph(random.Random(6), 6, 5), 2, 278, True, "aa6e70fe9efb5d80"),
    ],
)
def test_reduced_instance_text_is_pinned(graph, k, delta, contiguous, digest):
    # The digests are of the text written when the reduction built people-keyed tables.
    art = reduce_clique(graph, k)
    text = serialize(art.inst)
    assert (art.delta, art.inst.contiguous) == (delta, contiguous)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert parse_instance(text) == art.inst and serialize(parse_instance(text)) == text


def test_reduce_requires_positive_k():
    with pytest.raises(ValueError):
        reduce_clique(planted_graph_7_5(), 0)


def test_witness_matching_planted_triangle():
    art = reduce_clique(planted_graph_7_5(), 3)
    mu = witness_matching(art, ("v1", "v2", "v3"))
    assert gs.blocking_pairs(art.inst, mu) == []
    obj = gs.objectives(art.inst, mu)
    assert obj.men_cost == obj.women_cost == art.k_hat == 373


def test_witness_matching_rejects_non_clique():
    art = reduce_clique(planted_graph_7_5(), 3)
    with pytest.raises(NotAClique):
        witness_matching(art, ("v1", "v2", "v4"))
    with pytest.raises(NotAClique):
        witness_matching(art, ("v1", "v2"))


def test_witness_matching_k1():
    g = Graph.build(tuple(f"v{i}" for i in range(1, 6)), [("v1", "v2")])
    art = reduce_clique(g, 1)
    assert not art.fallback
    mu = witness_matching(art, ("v3",))
    identity = _swap_matching(art, set(), set())
    diff = {p for pair in (mu.pairs ^ identity.pairs) for p in pair}
    names = {p.name for p in diff}
    assert names == {"m1_v3", "m2_v3", "w1_v3", "w2_v3"}
    assert gs.blocking_pairs(art.inst, mu) == []


def test_swapped_edge_with_endpoint_outside_needs_blocking_pair():
    art = reduce_clique(planted_graph_7_5(), 3)
    # edge v1-v2 swapped but v1 not chosen: its first edge man blocks with v1's woman
    mu = _swap_matching(art, {"v2", "v3"}, {0})
    blockers = gs.blocking_pairs(art.inst, mu)
    assert blockers
    names = {(m.name, w.name) for m, w in blockers}
    assert ("m1_e1", "w1_v1") in names


def every_stable_matching(art):
    """The rotation engine's stable set of a reduced instance."""
    return enumerate_stable(art.inst, limit=len(art.inst.men))


def test_engine_on_planted_artifact():
    art = reduce_clique(planted_graph_7_5(), 3)
    stable = every_stable_matching(art)
    opt = gs.optima(art.inst)
    assert len(stable.matchings) == 450
    assert stable.matchings[0] == opt.mu_m
    assert stable.matchings[-1] == opt.mu_w
    assert stable.bal_opt == art.k_hat  # the planted triangle is optimal
    mu = witness_matching(art, ("v1", "v2", "v3"))
    assert mu in stable.matchings
    # dummies and the star couple are together in every stable matching
    star_m = next(p for p in art.inst.men if p.name == "mstar")
    star_w = next(p for p in art.inst.women if p.name == "wstar")
    for matching in stable.matchings[:50]:
        assert matching.partner(star_m) == star_w
        for d in art.inst.men:
            if d.name.startswith("md"):
                assert matching.partner(d).name == "wd" + d.name[2:]


def stable_swap_candidates(art):
    """Every swap candidate with no blocking pair, by the generic scan."""
    g = art.graph
    n_v, n_e = len(g.vertices), len(g.edges)
    found = set()
    for mask in range(1 << (n_v + n_e)):
        chosen_v = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
        chosen_e = [j for j in range(n_e) if mask >> (n_v + j) & 1]
        mu = _swap_matching(art, chosen_v, chosen_e)
        if not gs.blocking_pairs(art.inst, mu):
            found.add(mu)
    return found


def check_engine_equals_the_stable_swap_candidates(n_v, edges):
    """Every stable matching of the reduced instance is a swap candidate,
    and the engine lists each stable candidate exactly once."""
    art = reduce_clique(Graph.build(tuple(f"v{i}" for i in range(1, n_v + 1)), edges), 3)
    assert not art.fallback
    stable = every_stable_matching(art)
    want = stable_swap_candidates(art)
    assert len(stable.matchings) == len(want) and set(stable.matchings) == want
    assert stable.bal_opt == min(gs.objectives(art.inst, mu).balance for mu in want)
    return art


def test_structured_enumerate_matches_generic_scan():
    # A 7-vertex, 4-edge graph: 85 people per side.
    art = check_engine_equals_the_stable_swap_candidates(
        7, [("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v4", "v5")]
    )
    assert len(art.inst.men) == 85


def test_structured_enumerate_equals_generic_oracle_on_small_artifact():
    # The sparsest non-fallback graph shape: 27 people per side.
    art = check_engine_equals_the_stable_swap_candidates(
        8, [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
    )
    assert len(art.inst.men) == 27


def test_engine_matchings_of_a_larger_artifact_are_stable():
    # 305 people per side: too many swap candidates for the generic scan
    # to list, but each matching the engine gives must pass it.
    g = Graph.build(
        tuple(f"v{i}" for i in range(1, 8)),
        [("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v4", "v5"), ("v5", "v6"), ("v6", "v7")],
    )
    art = reduce_clique(g, 3)
    stable = every_stable_matching(art)
    assert len(stable.matchings) == len(set(stable.matchings)) == 612
    assert all(not gs.blocking_pairs(art.inst, mu) for mu in stable.matchings)


def test_verify_reduction_twelve_vertices():
    # 2^24 swap candidates; the rotation engine lists the stable ones directly.
    g = random_graph(random.Random(12), 12, 12, plant_triangle=True)
    report = verify_reduction(g, 3)
    assert not report.fallback and report.clique_answer and report.reduction_answer
    assert report.ok and report.optima_match


def test_verify_reduction_nine_vertices():
    g = random_graph(random.Random(11), 9, 10, plant_triangle=True)
    report = verify_reduction(g, 3)
    assert report.clique_answer and report.agree and report.ok


def test_verify_reduction_makes_no_optima_call(monkeypatch):
    # O_M, O_W and both optima come from the rotation chain walk.
    def refuse(inst):
        raise AssertionError("gs.optima called")

    monkeypatch.setattr(gs, "optima", refuse)
    full = verify_reduction(planted_graph_7_5(), 3)
    assert not full.fallback and full.ok and full.optima_match and full.t_actual == 36
    fallback = verify_reduction(Graph.build(("a", "b", "c"), [("a", "b")]), 3)
    assert fallback.fallback and fallback.ok


def test_verify_reduction_runs_deferred_acceptance_on_its_instance_once(monkeypatch):
    # Only for mu_M, which the chain walk starts from; the walk reaches mu_W itself.
    made = []
    real_reduce, real_da = hardness.reduce_clique, gs._deferred_acceptance

    def reducing(g, k):
        made.append(real_reduce(g, k))
        return made[-1]

    on_input = [0]

    def counted(order, *args, **kwargs):
        on_input[0] += order is made[0].inst.m_rank or order is made[0].inst.w_rank
        return real_da(order, *args, **kwargs)

    monkeypatch.setattr(hardness, "reduce_clique", reducing)
    monkeypatch.setattr(gs, "_deferred_acceptance", counted)
    report = verify_reduction(planted_graph_7_5(), 3)
    assert not report.fallback and report.ok
    assert len(made) == 1 and on_input[0] == 1


def test_verify_reduction_cases():
    planted = verify_reduction(planted_graph_7_5(), 3)
    assert planted.clique_answer and planted.reduction_answer and planted.agree
    assert planted.ok and planted.t_actual == planted.t_expected == 36

    tri_free = verify_reduction(random_triangle_free_graph(random.Random(5), 7, 9), 3)
    assert not tri_free.clique_answer and not tri_free.reduction_answer
    assert tri_free.agree and tri_free.ok

    fallback = verify_reduction(Graph.build(("a", "b", "c"), [("a", "b")]), 3)
    assert fallback.fallback and fallback.agree and fallback.ok


def graph_26_40():
    """26 vertices on a ring, 40 edges: one past the brute-force bound of 25."""
    vertices = tuple(f"v{i}" for i in range(26))
    edges = [(vertices[i], vertices[(i + 1) % 26]) for i in range(26)]
    edges += [(vertices[i], vertices[i + 2]) for i in range(14)]
    return Graph.build(vertices, edges)


def test_verify_reduction_refuses_a_graph_beyond_the_bound_before_building_it(monkeypatch):
    # At k=3 this graph's reduction has 79,017 people per side.
    def refuse(g, k):
        raise AssertionError("reduce_clique called")

    monkeypatch.setattr(hardness, "reduce_clique", refuse)
    for k in (1, 3, 7):  # k=7 would be a fallback
        with pytest.raises(TooLarge, match=r"\A26 vertices exceeds the bound 25\Z"):
            verify_reduction(graph_26_40(), k)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: Graph(("a", "b"), (("b", "a"),)), GraphError,
                 "edge (b, a) must list the earlier vertex first", id="reversed-edge"),
    pytest.param(lambda: parse_graph("# a comment\n\na b c\n"), GraphError,
                 "line 3: expected 'u v'", id="graph-line"),
    pytest.param(lambda: witness_matching(reduce_clique(planted_graph_7_5(), 3), ("v1", "v2", "zz")),
                 NotAClique, "unknown vertex 'zz'", id="witness-unknown-vertex"),
    pytest.param(lambda: witness_matching(reduce_clique(Graph.build("abc", [("a", "b")]), 3), ("a", "b", "c")),
                 ValueError, "fallback artifacts carry no structured matchings", id="witness-fallback"),
    pytest.param(lambda: clique_bruteforce(graph_26_40(), 3), TooLarge,
                 "26 vertices exceeds the bound 25", id="clique-bound"),
    pytest.param(lambda: reduce_clique(graph_26_40(), 7), TooLarge,
                 "26 vertices exceeds the bound 25", id="reduce-fallback-bound"),
    pytest.param(lambda: verify_reduction(graph_26_40(), 3), TooLarge,
                 "26 vertices exceeds the bound 25", id="verify-bound"),
    pytest.param(lambda: verify_reduction(graph_26_40(), 0), GraphError,
                 "k must be at least 1", id="verify-k-below-1"),
])
def test_each_reduction_error_names_its_fault(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
