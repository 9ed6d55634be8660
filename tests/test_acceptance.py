"""Acceptance gate: every criterion is one test with an exact check.

A summary line per criterion is printed after the run (see conftest).
The shared corpus is 1000 seeded random instances with at most 7 people
per side, mixing full and partial preference lists.
"""

import random
import time

import pytest

from bsm import fpt, gs, hardness, kernel, oracle
from bsm.generate import (
    random_graph,
    random_instance,
    random_triangle_free_graph,
)
from helpers import enumerate_certificates, naive_certificates, sad_rich_instance

CORPUS_SEED = 20240807
CORPUS_SIZE = 1000
ORACLE_LIMIT = 64  # kernels get padded with forced dummy pairs; they collapse


def k_range(opt):
    return range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1)


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(CORPUS_SEED)
    return [random_instance(rng, max_side=7) for _ in range(CORPUS_SIZE)]


def sad_people(inst, opt):
    men = [m for m in inst.men if opt.mu_m.by_man.get(m) != opt.mu_w.by_man.get(m)]
    women = [w for w in inst.women if opt.mu_m.by_woman.get(w) != opt.mu_w.by_woman.get(w)]
    return men, women


def test_criterion_1_solver_matches_oracle(corpus):
    start = time.time()
    rng = random.Random(1)
    checked = 0
    for inst in corpus:
        opt = gs.optima(inst)
        stable = oracle.enumerate_stable(inst)
        ks = list(k_range(opt))
        spot = rng.choice(ks)
        for k in ks:
            expected = stable.bal_opt <= k
            result = fpt.solve_above_min(inst, k)
            assert result.answer == expected, (inst, k)
            assert result.t == k - min(opt.o_m, opt.o_w)
            if result.answer:
                assert not gs.blocking_pairs(inst, result.witness)
                assert gs.objectives(inst, result.witness).balance <= k
            if result.r is not None:
                kopt = gs.optima(result.kernel.kernel)
                sad_men, _ = sad_people(result.kernel.kernel, kopt)
                assert result.stats.subsets_tried <= 2 ** len(sad_men)
                assert result.stats.max_branch_nodes <= 4 * 2 ** result.r
            if k == spot:
                verdict = oracle.decide_above_min(inst, k)
                assert verdict.answer == expected
                assert verdict.t == result.t
            checked += 1
    elapsed = time.time() - start
    assert checked >= 1000
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_kernel_equivalence_and_bounds(corpus):
    start = time.time()
    kernels = 0
    for inst in corpus:
        opt = gs.optima(inst)
        stable = oracle.enumerate_stable(inst)
        for k in k_range(opt):
            expected = stable.bal_opt <= k
            result = kernel.kernelize(inst, k)
            for step in result.trace.steps:
                assert step.t_after <= step.t_before
            if result.outcome != kernel.OUTCOME_KERNEL:
                assert (result.outcome == kernel.TRIVIAL_YES) == expected
                continue
            kernels += 1
            kin, kk = result.kernel, result.k
            assert oracle.decide_above_min(kin, kk).answer == expected
            kopt = gs.optima(kin)
            t = kk - min(kopt.o_m, kopt.o_w)
            assert t <= result.t_input
            assert len(kin.men) <= 3 * t and len(kin.women) <= 3 * t
            sad_men, sad_women = sad_people(kin, kopt)
            assert len(sad_men) <= 2 * t and len(sad_women) <= 2 * t
            sad = set(sad_men) | set(sad_women)
            for person in kin.people:
                bound = t + 1 if person in sad else 2 * t + 1
                assert len(kin.prefs.ranks[person]) <= bound
    elapsed = time.time() - start
    assert kernels > 100
    assert elapsed < 60, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_functional_kernel_bounds(corpus):
    seen = 0
    for inst in corpus[:400]:
        opt = gs.optima(inst)
        for k in k_range(opt):
            result = kernel.kernelize(inst, k)
            if result.outcome != kernel.OUTCOME_KERNEL:
                continue
            seen += 1
            fun, fk = result.functional, result.functional_k
            fopt = gs.optima(fun)
            t = fk - min(fopt.o_m, fopt.o_w)
            assert len(fun.men) <= 2 * t and len(fun.women) <= 2 * t
            assert min(fopt.o_m, fopt.o_w) == len(fun.men) == len(fun.women)
            for person in fun.people:
                values = fun.prefs.ranks[person].values()
                assert all(1 <= value <= t + 1 for value in values)
    assert seen > 50


def test_criterion_4_classical_properties(corpus):
    for inst in corpus:
        opt = gs.optima(inst)
        stable = oracle.enumerate_stable(inst)
        assert opt.mu_m in stable.matchings and opt.mu_w in stable.matchings
        ranks = inst.prefs.ranks
        matched = None
        for mu in stable.matchings:
            people = frozenset(p for pair in mu.pairs for p in pair)
            if matched is None:
                matched = people
            assert people == matched  # same matched set in every stable matching
            for m, w in mu.pairs:
                assert ranks[m][opt.mu_m.by_man[m]] <= ranks[m][w]
                assert ranks[m][w] <= ranks[m][opt.mu_w.by_man[m]]
                assert ranks[w][opt.mu_w.by_woman[w]] <= ranks[w][m]
                assert ranks[w][m] <= ranks[w][opt.mu_m.by_woman[w]]


def test_criterion_5_branching_bounds():
    rng = random.Random(5)
    solved_nontrivially = 0
    certificate_checks = 0
    for _ in range(40):
        inst = sad_rich_instance(rng, max_side=7)
        opt = gs.optima(inst)
        bal = oracle.enumerate_stable(inst).bal_opt
        for k in {max(opt.o_m, opt.o_w), bal - 1, bal, opt.o_m + opt.o_w}:
            result = fpt.solve_above_min(inst, k)
            if result.r is None:
                continue
            solved_nontrivially += 1
            kin = result.kernel.kernel
            kopt = gs.optima(kin)
            sad_men = [
                m for m in kin.men if kopt.mu_m.by_man.get(m) != kopt.mu_w.by_man.get(m)
            ]
            assert result.stats.subsets_tried <= 2 ** len(sad_men)
            assert result.stats.max_branch_nodes <= 4 * 2 ** result.r
            r = result.r
            for size in range(min(4, len(sad_men)) + 1):
                m_prime = sad_men[:size]
                got = {
                    frozenset(c.pairs)
                    for c in enumerate_certificates(kin, m_prime, r)
                }
                assert got == naive_certificates(kin, m_prime, r)
                certificate_checks += 1
    assert solved_nontrivially >= 40
    assert certificate_checks >= 40


def test_criterion_6_reduction_arithmetic():
    start = time.time()
    g = hardness.Graph.build(
        tuple(f"v{i}" for i in range(1, 8)),
        [("v1", "v2"), ("v1", "v3"), ("v2", "v3"), ("v4", "v5"), ("v6", "v7")],
    )
    art = hardness.reduce_clique(g, 3)
    assert art.delta == 156
    assert len(art.inst.men) == len(art.inst.women) == 181
    assert art.k_hat == 373
    assert art.t == 36
    opt = gs.optima(art.inst)
    assert opt.o_m == 337 and opt.o_w == 181
    assert opt.mu_m == hardness._swap_matching(art, set(), set())
    assert opt.mu_w == hardness._swap_matching(
        art, set(g.vertices), set(range(len(g.edges)))
    )
    assert time.time() - start < 5


def test_criterion_7_reduction_equivalence():
    start = time.time()
    rng = random.Random(7)
    agree = 0
    cliques_witnessed = 0
    samples = []
    for i in range(56):
        n_v = 7 if i % 2 == 0 else 8
        if i % 4 == 3:
            samples.append(random_triangle_free_graph(rng, n_v, rng.randint(4, 10)))
        elif i % 7 == 6:
            samples.append(random_graph(rng, n_v, rng.randint(1, 3)))  # fallback range
        else:
            samples.append(random_graph(rng, n_v, rng.randint(5, 10), plant_triangle=True))
    for g in samples:
        report = hardness.verify_reduction(g, 3)
        assert report.agree, g
        assert report.ok, g
        agree += 1
        if report.clique and not report.fallback:
            art = hardness.reduce_clique(g, 3)
            mu = hardness.witness_matching(art, report.clique)
            assert gs.blocking_pairs(art.inst, mu) == []
            obj = gs.objectives(art.inst, mu)
            assert obj.men_cost == obj.women_cost == art.k_hat
            cliques_witnessed += 1
    elapsed = time.time() - start
    assert agree >= 50
    assert cliques_witnessed >= 20
    assert elapsed < 600, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_gap_filling():
    rng = random.Random(8)
    checked = 0
    for _ in range(60):
        inst = sad_rich_instance(rng, max_side=6)
        opt = gs.optima(inst)
        for k in (max(opt.o_m, opt.o_w), max(opt.o_m, opt.o_w) + 2):
            result = kernel.kernelize(inst, k)
            if result.outcome != kernel.OUTCOME_KERNEL:
                continue
            checked += 1
            kin = result.kernel
            assert kin.contiguous
            for person in kin.people:
                image = sorted(kin.prefs.ranks[person].values())
                assert image == list(range(1, len(image) + 1))
            kopt = gs.optima(kin)
            t = result.k - min(kopt.o_m, kopt.o_w)
            assert len(result.dummy_men) == len(result.dummy_women) == t
            dummy_men = set(result.dummy_men)
            for x, y in zip(result.dummy_men, result.dummy_women):
                assert kin.prefs.ranks[x][y] == 1 and kin.prefs.ranks[y][x] == 1
            assert sum(1 for m in kin.men if m in dummy_men) == t
            bal_before = oracle.enumerate_stable(result.functional, limit=ORACLE_LIMIT).bal_opt
            bal_after = oracle.enumerate_stable(kin, limit=ORACLE_LIMIT).bal_opt
            assert bal_after == bal_before + t
    assert checked >= 30
