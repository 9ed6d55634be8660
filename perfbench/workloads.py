"""The seeded workloads: their inputs, the timed operations and the answer checks.

Every operation receives instance text or graph text, as a user of the
``bsm`` command supplies it, and parses it inside its timed region.  Inputs
depend only on the seed, the number of passes and ``tiny``; reference
answers are computed with them, before anything is timed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from bsm import fpt, gs, hardness, instance, oracle
from bsm.instance import make_instance
from bsm.generate import random_graph, random_instance, random_triangle_free_graph

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 20240807
LARGE_EXPECTED = HERE / "large_expected.json"
OPTIMIZE_POOL = HERE / "optimize_pool.json"

# Seconds one pass takes on a 2-core Xeon VM; a run makes floor(seconds / this) passes.
NOMINAL_PASS_S = {"corpus": 17.0, "large": 7.0, "optimize": 6.5, "reduction": 6.0}

WORKLOADS = tuple(NOMINAL_PASS_S)

# Side samples that give every workload an enumeration and a reduction metric.
SIDE_ENUMERATE = 980
SIDE_REDUCE = 80


@dataclass
class Op:
    """One closed-loop operation and what its answer must be."""

    kind: str  # decide | optimize | enumerate | verify | reduce
    text: str  # instance text, or graph text for verify and reduce
    k: int | None = None
    expect: object = None  # reference answer; None when only generic checks apply
    key: str = ""


@dataclass
class Workload:
    ops: list[Op]  # the timed loop: ops_per_s and the latency metrics
    enumerate_ops: list[Op]  # enumerate_ms_p50
    reduce_ops: list[Op]  # reduce_ms_p50


# --- operations ---------------------------------------------------------------

def _parse(tr, text: str):
    tr.note("instance.bytes_parsed", len(text))
    return tr.call("instance.parse_instance", instance.parse_instance, text)


def _solve(tr, inst, k: int):
    result = tr.call("fpt.solve_above_min", fpt.solve_above_min, inst, k)
    tr.note_solve(result)
    return result


def minimal_balance(inst, solve) -> tuple[int, object]:
    """``bsm solve --optimize``: binary search for the least k with a yes answer.

    Mirrors the search in ``bsm.cli``; returns the balance and the solver
    result at that balance.
    """
    opt = gs.optima(inst)
    low = max(opt.o_m, opt.o_w)
    high = gs.objectives(inst, opt.mu_m).balance
    while low < high:
        mid = (low + high) // 2
        if solve(inst, mid).answer:
            high = mid
        else:
            low = mid + 1
    return low, solve(inst, low)


def execute(op: Op, tr):
    """Run one operation through the tracer; returns what its check needs."""
    if op.kind == "decide":
        inst = _parse(tr, op.text)
        return inst, _solve(tr, inst, op.k)
    if op.kind == "optimize":
        inst = _parse(tr, op.text)
        return inst, minimal_balance(inst, lambda i, k: _solve(tr, i, k))
    if op.kind == "enumerate":
        inst = _parse(tr, op.text)
        stable = tr.call("oracle.enumerate_stable", oracle.enumerate_stable, inst)
        tr.note("oracle.stable_matchings", len(stable.matchings))
        return inst, stable
    graph = tr.call("hardness.parse_graph", hardness.parse_graph, op.text)
    if op.kind == "verify":
        report = tr.call("hardness.verify_reduction", hardness.verify_reduction, graph, op.k)
        if not report.fallback:
            tr.note("hardness.candidates", 2 ** (len(graph.vertices) + len(graph.edges)))
        return graph, report
    if op.kind == "reduce":
        art = hardness.reduce_clique(graph, op.k)
        text = tr.call("instance.serialize", instance.serialize, art.inst)
        tr.note("hardness.reductions", 1)
        tr.note("hardness.people", len(art.inst.men))
        return art, _parse(tr, text)
    raise ValueError(f"unknown operation kind {op.kind!r}")


# --- checks -------------------------------------------------------------------

def _witness_error(inst, witness, k: int) -> str | None:
    if witness is None:
        return "yes answer without a witness"
    if gs.blocking_pairs(inst, witness):
        return "witness has a blocking pair"
    balance = gs.objectives(inst, witness).balance
    if balance > k:
        return f"witness balance {balance} exceeds k={k}"
    return None


def _check_decide(op: Op, inst, result) -> str | None:
    if op.expect is not None and result.answer != op.expect:
        return f"answer {result.answer}, reference {op.expect}"
    opt = gs.optima(inst)
    if op.k < max(opt.o_m, opt.o_w) and result.answer:
        return "yes below max(O_M, O_W), where no stable matching fits"
    easy = min(gs.objectives(inst, opt.mu_m).balance, gs.objectives(inst, opt.mu_w).balance)
    if op.k >= easy and not result.answer:
        return f"no, but an extreme stable matching has balance {easy} <= k"
    if result.answer:
        return _witness_error(inst, result.witness, op.k)
    return None


def _check_optimize(op: Op, inst, answer) -> str | None:
    balance, final = answer
    if balance != op.expect:
        return f"minimal balance {balance}, reference {op.expect}"
    if not final.answer:
        return "the search ended on a no answer"
    return _witness_error(inst, final.witness, balance)


def _check_enumerate(op: Op, inst, stable) -> str | None:
    if len(set(stable.matchings)) != len(stable.matchings):
        return "a stable matching is listed twice"
    for mu in stable.matchings:
        if gs.blocking_pairs(inst, mu):
            return "an enumerated matching has a blocking pair"
    opt = gs.optima(inst)
    if opt.mu_m not in stable.matchings or opt.mu_w not in stable.matchings:
        return "an extreme stable matching is missing"
    best = min(gs.objectives(inst, mu).balance for mu in stable.matchings)
    if stable.bal_opt != best:
        return f"bal_opt {stable.bal_opt}, listed minimum {best}"
    return None


def _check_verify(op: Op, graph, report) -> str | None:
    if not report.ok:
        return "reduction report not ok"
    has_clique = hardness.clique_bruteforce(graph, op.k) is not None
    if report.reduction_answer != has_clique or has_clique != op.expect:
        return (f"reduction {report.reduction_answer}, brute force {has_clique}, "
                f"generator {op.expect}")
    return None


def _check_reduce(op: Op, art, parsed) -> str | None:
    if parsed != art.inst:
        return "the reduced instance does not survive serialize and parse"
    clique = hardness.clique_bruteforce(art.graph, op.k)
    if (clique is not None) != op.expect:
        return f"brute force clique {clique}, generator {op.expect}"
    if clique is None or art.fallback:
        return None
    return _witness_error(parsed, hardness.witness_matching(art, clique), parsed.target_k)


CHECKS = {
    "decide": _check_decide,
    "optimize": _check_optimize,
    "enumerate": _check_enumerate,
    "verify": _check_verify,
    "reduce": _check_reduce,
}


def check(op: Op, outcome) -> str | None:
    """None when the answer of ``op`` is right, otherwise what is wrong."""
    return CHECKS[op.kind](op, *outcome)


# --- inputs -------------------------------------------------------------------

def _enumerate_sample(rng: random.Random, count: int) -> list[Op]:
    """Corpus-style instances for the enumeration metric of other workloads.

    Every side size from 1 to 7 pairs with every other equally often, and
    full lists alternate with sparse ones, so the seed changes the
    instances but not the mix their median is taken over.
    """
    ops = []
    for i in range(count):
        n_men, n_women = 1 + i % 7, 1 + i // 7 % 7
        density = 1.0 if i % 2 else rng.uniform(0.3, 0.9)
        inst = random_instance(rng, n_men, n_women, density)
        ops.append(Op("enumerate", instance.serialize(inst), key=f"side-{i}"))
    return ops


def _graph_op(kind: str, rng: random.Random, n_v: int, n_e: int, planted: bool, k: int, key: str) -> Op:
    if planted:
        graph = random_graph(rng, n_v, n_e, plant_triangle=True)
    else:
        graph = random_triangle_free_graph(rng, n_v, n_e)
    return Op(kind, hardness.serialize_graph(graph), k=k, expect=planted, key=key)


def _reduce_sample(rng: random.Random, count: int) -> list[Op]:
    """7-vertex, 5-edge graphs at k=3 (181 people per side), half with a triangle."""
    return [
        _graph_op("reduce", rng, 7, 5, i % 2 == 0, 3, f"side-{i}") for i in range(count)
    ]


def _corpus(seed: int, passes: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    count, max_side = (30, 5) if tiny else (1000, 7)
    texts = [instance.serialize(random_instance(rng, max_side=max_side)) for _ in range(count)]
    enumerate_ops = [Op("enumerate", text, key=f"i{i}") for i, text in enumerate(texts)]
    ops = []
    for i, text in enumerate(texts):
        inst = instance.parse_instance(text)
        opt = gs.optima(inst)
        bal_opt = oracle.enumerate_stable(inst).bal_opt
        for k in range(max(opt.o_m, opt.o_w) - 1, opt.o_m + opt.o_w + 1):
            ops.append(Op("decide", text, k=k, expect=bal_opt <= k, key=f"i{i}-k{k}"))
    side = random.Random(seed + 1)
    return Workload(ops * passes, enumerate_ops, _reduce_sample(side, 4 if tiny else SIDE_REDUCE))


LARGE_OFFSETS = (0, 2, 5)
# The sizes of one pass in the order they run.  Three n=30 decisions out of
# five put the median latency in the middle of the n=30 ones, and give it
# three samples per pass, spread over the pass.
LARGE_PASS = (30, 20, 30, 40, 30)
LARGE_PASS_TINY = (8, 6, 8, 10, 8)


def large_ops(seed: int, passes: int, tiny: bool) -> list[Op]:
    """A fresh full-list instance for every decision of every pass.

    The k offsets rotate, so each n meets every offset over the run.
    """
    rng = random.Random(seed)
    sizes = LARGE_PASS_TINY if tiny else LARGE_PASS
    made = dict.fromkeys(sizes, 0)
    ops = []
    for p in range(passes):
        for n in sizes:
            d = LARGE_OFFSETS[made[n] % len(LARGE_OFFSETS)]
            made[n] += 1
            text = instance.serialize(random_instance(rng, n, n, 1.0))
            opt = gs.optima(instance.parse_instance(text))
            ops.append(Op("decide", text, k=max(opt.o_m, opt.o_w) + d, key=f"p{p}-n{n}-d{d}"))
    return ops


def _large(seed: int, passes: int, tiny: bool) -> Workload:
    ops = large_ops(seed, passes, tiny)
    if seed == DEFAULT_SEED and not tiny:
        recorded = json.loads(LARGE_EXPECTED.read_text())["answers"]
        for op in ops:
            op.expect = recorded.get(op.key)
    side = random.Random(seed + 1)
    return Workload(
        ops, _enumerate_sample(side, 20 if tiny else SIDE_ENUMERATE),
        _reduce_sample(side, 4 if tiny else SIDE_REDUCE),
    )


# The sizes of one pass in the order they run: 1, 2, 3 and 2 searches of
# n = 9, 10, 11 and 12, interleaved so every size recurs over the whole run.
OPTIMIZE_PASS_ORDER = (11, 10, 12, 9, 11, 12, 10, 11)


def optimize_instance(n: int, gen_seed: int):
    """A full-list n x n instance, as listed in the optimize pool."""
    return random_instance(random.Random(gen_seed), n, n, 1.0)


def renamed(inst, rng: random.Random):
    """``inst`` with the names of each side permuted: another text, the same
    preferences by position, so the same search and the same answer."""
    new = {}
    for people in (inst.men, inst.women):
        new.update(zip(people, rng.sample(people, len(people))))
    ranks = {new[a]: {new[b]: r for b, r in table.items()} for a, table in inst.prefs.ranks.items()}
    return make_instance(tuple(new[m] for m in inst.men), tuple(new[w] for w in inst.women), ranks)


def _optimize(seed: int, passes: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    references: dict[tuple[int, int], int] = {}
    if tiny:
        chosen = [(rng.randint(5, 6), rng.randrange(10**6)) for _ in range(3 * passes)]
    else:
        # Every run of four passes searches each pool instance once, in a
        # seeded order, renamed by the seed.  Cost grows with n; with three
        # n=11 searches out of eight the median latency falls inside the
        # n=11 searches, not between two sizes.
        by_n: dict[int, list[int]] = {}
        for n, gen_seed, _, bal_opt in json.loads(OPTIMIZE_POOL.read_text())["entries"]:
            by_n.setdefault(n, []).append(gen_seed)
            references[n, gen_seed] = bal_opt  # the oracle's, when the pool was made
        orders = {n: rng.sample(seeds, len(seeds)) for n, seeds in sorted(by_n.items())}
        used = dict.fromkeys(orders, 0)
        chosen = []
        for _ in range(passes):
            for n in OPTIMIZE_PASS_ORDER:
                chosen.append((n, orders[n][used[n] % len(orders[n])]))
                used[n] += 1
    ops = []
    for n, gen_seed in chosen:
        inst = optimize_instance(n, gen_seed)
        if (n, gen_seed) not in references:
            references[n, gen_seed] = oracle.enumerate_stable(inst, limit=n).bal_opt
        text = instance.serialize(renamed(inst, rng))
        ops.append(Op("optimize", text, expect=references[n, gen_seed], key=f"n{n}-s{gen_seed}"))
    side = random.Random(seed + 1)
    return Workload(
        ops, _enumerate_sample(side, 20 if tiny else SIDE_ENUMERATE),
        _reduce_sample(side, 4 if tiny else SIDE_REDUCE),
    )


# One pass in run order: (vertices, edges, planted triangle, k).  The full
# reductions cover every |V|+|E| from 12 to 20 at k=3, each size once with a
# planted triangle and once triangle-free; consecutive sizes keep the
# latency distribution free of wide gaps.  Graphs of at most six vertices at
# k=3, and the seven-vertex triangle-free ones at k=4, take the brute-force
# fallback instead.  Sizes are spread over the pass, so none sits in one
# stretch of the run, and with four fallbacks in 22 the median latency falls
# in the middle of the (8, 7) graphs rather than at the edge of a size.
REDUCTION_PASS = (
    (8, 8, True, 3), (7, 5, False, 3), (10, 10, True, 3), (6, 6, True, 3),
    (7, 7, True, 3), (9, 9, False, 3), (7, 6, True, 3), (9, 8, False, 3),
    (6, 6, False, 3), (10, 9, True, 3), (8, 7, False, 3), (8, 8, False, 3),
    (7, 5, True, 3), (10, 10, False, 3), (7, 5, False, 4), (7, 7, False, 3),
    (9, 9, True, 3), (7, 6, False, 3), (9, 8, True, 3), (6, 5, False, 3),
    (10, 9, False, 3), (8, 7, True, 3),
)


def _falls_back(n_v: int, k: int) -> bool:
    """Whether ``reduce_clique`` settles a graph by brute force (for these sizes)."""
    return n_v <= k + k * (k - 1) // 2


def _reduction(seed: int, passes: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    graphs = [g for g in REDUCTION_PASS if not tiny or g[0] + g[1] <= 12]
    ops = []
    for p in range(passes):
        for n_v, n_e, planted, k in graphs:
            ops.append(_graph_op("verify", rng, n_v, n_e, planted, k, f"p{p}-{n_v}v{n_e}e-k{k}-{planted}"))
    reduce_ops = [
        Op("reduce", op.text, k=op.k, expect=op.expect, key=op.key)
        for op, (n_v, _, _, k) in zip(ops, graphs * passes) if not _falls_back(n_v, k)
    ]
    side = random.Random(seed + 1)
    return Workload(ops, _enumerate_sample(side, 20 if tiny else SIDE_ENUMERATE), reduce_ops)


BUILDERS = {"corpus": _corpus, "large": _large, "optimize": _optimize, "reduction": _reduction}


def build(name: str, seed: int, passes: int, tiny: bool = False) -> Workload:
    return BUILDERS[name](seed, passes, tiny)

