import hashlib
import random

import pytest

from bsm import gs, hardness, instance
from bsm.generate import random_graph, random_triangle_free_graph
from bsm.hardness import (
    Graph,
    GraphError,
    NotAClique,
    _swap_partners,
    clique_bruteforce,
    parse_graph,
    reduce_clique,
    serialize_graph,
    verify_reduction,
    witness_matching,
)
from bsm.instance import parse_instance, serialize
from bsm.oracle import TooLarge, decide_above_min, enumerate_stable
from helpers import reference_reduce_clique, verify_cases


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
    # A declared order pins wherever the line stands; undeclared endpoints follow.
    late = parse_graph("a b\nvertices: c b a\nd a\n")
    assert late.vertices == ("c", "b", "a", "d")
    assert late.edges == (("b", "a"), ("a", "d"))
    assert parse_graph(serialize_graph(late)) == late


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
    identity = art.inst.matching_from_arrays(_swap_partners(art, set(), set()))
    swapped = art.inst.matching_from_arrays(
        _swap_partners(art, set(art.graph.vertices), set(range(len(art.graph.edges))))
    )
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


# (graph, k, delta, contiguous, sha256[:16] of the reduced instance's text)
PINNED_REDUCTIONS = [
    # With fewer than two dummies the rank tables have gaps.
    (Graph.build("abcd", []), 1, 0, False, "1a92b00316fb970b"),
    (Graph.build("abcde", []), 1, 2, True, "889fd5fbffcd15c1"),
    (Graph.build("abcdefg", [("c", "f")]), 2, 2, False, "989dd1b2ee54aada"),
    (random_graph(random.Random(4), 7, 9, plant_triangle=True), 3, 812, True, "41f8dad33a283d08"),
    (random_graph(random.Random(6), 6, 5), 2, 278, True, "aa6e70fe9efb5d80"),
    # The two 1,573-person graphs that CI verifies.
    (random_graph(random.Random(1), 10, 10, plant_triangle=True), 3, 1532, True, "7c18890f376a17ce"),
    (random_triangle_free_graph(random.Random(1), 10, 10), 3, 1532, True, "966894ba3a37fe8c"),
]


@pytest.mark.parametrize("graph, k, delta, contiguous, digest", PINNED_REDUCTIONS)
def test_reduced_instance_text_is_pinned(graph, k, delta, contiguous, digest):
    # The digests are of the text written when the reduction built people-keyed tables.
    art = reduce_clique(graph, k)
    text = serialize(art.inst)
    assert (art.delta, art.inst.contiguous) == (delta, contiguous)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    assert parse_instance(text) == art.inst and serialize(parse_instance(text)) == text


def reduction_rows(art):
    """Each table of a reduction as its list of (key, rank) in order, then its bookkeeping and names."""
    inst = art.inst
    names = (inst.men, inst.women) if art.fallback else (inst.men.names, inst.women.names)
    tables = [list(t.items()) for t in inst.m_rank + inst.w_rank]
    return tables, art.delta, art.k_hat, art.t, art.fallback, inst.target_k, names


def test_reduce_clique_builds_the_reference_rows_in_order():
    # The recorded verify graphs, the pinned ones and seeded random graphs at
    # k = 1 to 4: full reductions with no, two and many dummies, and fallbacks.
    cases = [(graph, k) for _, graph, k in verify_cases()] + [case[:2] for case in PINNED_REDUCTIONS]
    rng = random.Random(4901)
    for i in range(300):
        n_v = rng.randint(3, 9)
        n_e = rng.randint(0, min(14, n_v * (n_v - 1) // 2))
        graph = random_graph(rng, n_v, n_e, plant_triangle=True) if i % 2 else random_triangle_free_graph(rng, n_v, n_e)
        cases.append((graph, rng.randint(1, 4)))
    deltas, fallbacks = set(), 0
    for graph, k in cases:
        art = reduce_clique(graph, k)
        assert reduction_rows(art) == reduction_rows(reference_reduce_clique(graph, k)), (graph, k)
        if art.fallback:
            fallbacks += 1
        else:
            deltas.add(art.delta)
    assert fallbacks >= 100 and {0, 2} <= deltas and len(deltas) >= 80


@pytest.mark.parametrize("graph, k", [case[:2] for case in PINNED_REDUCTIONS[-2:]])
def test_a_verify_names_no_one(monkeypatch, graph, k):
    built = []
    monkeypatch.setattr(hardness, "reduce_clique", lambda g, k: built.append(reduce_clique(g, k)) or built[-1])
    assert verify_reduction(graph, k).ok
    (art,) = built
    assert "people" not in vars(art.inst.men) and "people" not in vars(art.inst.women)
    # Named later, each side lists the people of the text in index order.
    named = parse_instance(serialize(art.inst))
    assert art.inst.men == named.men and art.inst.women == named.women
    assert vars(art.inst.men)["people"] == named.men


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
    identity = art.inst.matching_from_arrays(_swap_partners(art, set(), set()))
    diff = {p for pair in (mu.pairs ^ identity.pairs) for p in pair}
    names = {p.name for p in diff}
    assert names == {"m1_v3", "m2_v3", "w1_v3", "w2_v3"}
    assert gs.blocking_pairs(art.inst, mu) == []


def test_swapped_edge_with_endpoint_outside_needs_blocking_pair():
    art = reduce_clique(planted_graph_7_5(), 3)
    # edge v1-v2 swapped but v1 not chosen: its first edge man blocks with v1's woman
    mu = art.inst.matching_from_arrays(_swap_partners(art, {"v2", "v3"}, {0}))
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
        partner = dict(matching.pairs)
        assert partner[star_m] == star_w
        for d in art.inst.men:
            if d.name.startswith("md"):
                assert partner[d].name == "wd" + d.name[2:]


def stable_swap_candidates(art):
    """Every swap candidate with no blocking pair, by the generic scan."""
    g = art.graph
    n_v, n_e = len(g.vertices), len(g.edges)
    found = set()
    for mask in range(1 << (n_v + n_e)):
        chosen_v = [v for i, v in enumerate(g.vertices) if mask >> i & 1]
        chosen_e = [j for j in range(n_e) if mask >> (n_v + j) & 1]
        mu = art.inst.matching_from_arrays(_swap_partners(art, chosen_v, chosen_e))
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


def test_verify_reduction_runs_deferred_acceptance_once_per_optimum(monkeypatch):
    # The chain walk starts from mu_M and stops at mu_W: one run with the
    # men proposing and one with the women proposing.
    made = []
    real_reduce, real_da = hardness.reduce_clique, instance._deferred_acceptance

    def reducing(g, k):
        made.append(real_reduce(g, k))
        return made[-1]

    proposers = []

    def counted(order, *args, **kwargs):
        proposers.append(order)
        return real_da(order, *args, **kwargs)

    monkeypatch.setattr(hardness, "reduce_clique", reducing)
    monkeypatch.setattr(instance, "_deferred_acceptance", counted)
    report = verify_reduction(planted_graph_7_5(), 3)
    assert not report.fallback and report.ok
    assert len(made) == 1
    assert sum(order is made[0].inst.m_rank for order in proposers) == 1
    assert sum(order is made[0].inst.w_rank for order in proposers) == 1


def test_verify_reduction_runs_clique_brute_force_once(monkeypatch):
    calls = [0]
    real = hardness.clique_bruteforce

    def counted(g, k):
        calls[0] += 1
        return real(g, k)

    monkeypatch.setattr(hardness, "clique_bruteforce", counted)
    for g, k, fallback in [
        (planted_graph_7_5(), 3, False),
        (Graph.build(("a", "b", "c"), [("a", "b")]), 3, True),
        (random_graph(random.Random(1), 9, 12, plant_triangle=True), 4, True),
    ]:
        calls[0] = 0
        report = verify_reduction(g, k)
        assert report.fallback == fallback and report.ok
        assert calls[0] == 1


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
    pytest.param(lambda: parse_graph("a b\nvertices: a c a\n"), GraphError,
                 "line 2: duplicate vertex 'a'", id="graph-repeated-vertex"),
    pytest.param(lambda: parse_graph("vertices: a\na b\nvertices: c\n"), GraphError,
                 "line 3: duplicate 'vertices:' line", id="graph-second-vertices-line"),
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
