"""Command-line surface: one verb per invocation, one JSON document on stdout.

Exit codes: 0 for success or a yes answer, 1 for a no answer (or a failed
check), 2 for usage and input errors, 3 for an internal invariant failure.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import fpt, gs, hardness, kernel, oracle
from .generate import random_instance
from .instance import (
    GapError,
    Instance,
    Matching,
    ParseError,
    ValidationError,
    parse_instance,
    serialize,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _read_instance(path: str) -> Instance:
    text = _read_text(path)
    fmt = "json" if text.lstrip().startswith("{") else "text"
    return parse_instance(text, fmt)


def _read_matching(path: str, inst: Instance) -> Matching:
    by_name = {p.name: p for p in inst.people}
    pairs = []
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise gs.InvalidMatching(f"line {lineno}: expected 'man woman'")
        man, woman = (by_name.get(parts[0]), by_name.get(parts[1]))
        if man is None or woman is None:
            raise gs.InvalidMatching(f"line {lineno}: unknown person")
        pairs.append((man, woman))
    return Matching.of(pairs)


def _pairs_json(inst: Instance, mu: Matching) -> list[list[str]]:
    position = {p: i for i, p in enumerate(inst.men)}
    ordered = sorted(mu.pairs, key=lambda pair: position.get(pair[0], len(position)))
    return [[m.name, w.name] for m, w in ordered]


def _objectives_json(obj: gs.Objectives) -> dict:
    return {
        "men_cost": obj.men_cost,
        "women_cost": obj.women_cost,
        "balance": obj.balance,
        "egalitarian": obj.egalitarian,
        "sex_equal": obj.sex_equal,
    }


def _emit(payload) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_optima(args) -> int:
    inst = _read_instance(args.instance)
    opt = gs.optima(inst)
    _emit({
        "mu_m": _pairs_json(inst, opt.mu_m),
        "mu_w": _pairs_json(inst, opt.mu_w),
        "o_m": opt.o_m,
        "o_w": opt.o_w,
        "objectives": {
            "mu_m": _objectives_json(gs.objectives(inst, opt.mu_m)),
            "mu_w": _objectives_json(gs.objectives(inst, opt.mu_w)),
        },
    })
    return EXIT_YES


def _cmd_check(args) -> int:
    inst = _read_instance(args.instance)
    mu = _read_matching(args.matching, inst)
    blocking = gs.blocking_pairs(inst, mu)
    _emit({
        "stable": not blocking,
        "blocking_pairs": [[m.name, w.name] for m, w in blocking],
        "objectives": _objectives_json(gs.objectives(inst, mu)),
    })
    return EXIT_YES if not blocking else EXIT_NO


def _cmd_enumerate(args) -> int:
    inst = _read_instance(args.instance)
    stable = oracle.enumerate_stable(inst, limit=args.limit)
    _emit([
        {
            "pairs": _pairs_json(inst, mu),
            "objectives": _objectives_json(gs.objectives(inst, mu)),
        }
        for mu in stable.matchings
    ])
    return EXIT_YES


def _trace_json(trace: kernel.KernelTrace) -> list[dict]:
    return [
        {
            "rule": step.rule,
            "affected": [p.name for p in step.affected],
            "k_before": step.k_before,
            "k_after": step.k_after,
            "t_before": step.t_before,
            "t_after": step.t_after,
        }
        for step in trace.steps
    ]


def _target_k(args, inst: Instance) -> int:
    if args.k is not None:
        return args.k
    if inst.target_k is not None:
        return inst.target_k
    raise ValidationError("no k given: pass --k or store one in the instance")


def _cmd_kernelize(args) -> int:
    inst = _read_instance(args.instance)
    result = kernel.kernelize(inst, _target_k(args, inst))
    payload = {
        "outcome": result.outcome,
        "k": result.k,
        "t_input": result.t_input,
        "instance": serialize(result.kernel) if result.kernel is not None else None,
    }
    if args.trace:
        payload["trace"] = _trace_json(result.trace)
    _emit(payload)
    if result.outcome == kernel.TRIVIAL_NO:
        return EXIT_NO
    return EXIT_YES


def _cmd_solve(args) -> int:
    inst = _read_instance(args.instance)
    if args.optimize:
        opt = gs.optima(inst)
        low = max(opt.o_m, opt.o_w)
        high = gs.objectives(inst, opt.mu_m).balance
        decisions = 0
        while low < high:
            mid = (low + high) // 2
            decisions += 1
            if fpt.solve_above_min(inst, mid).answer:
                high = mid
            else:
                low = mid + 1
        final = fpt.solve_above_min(inst, low)
        decisions += 1
        _emit({
            "bal": low,
            "witness": _pairs_json(inst, final.witness) if final.witness is not None else None,
            "t": final.t,
            "decisions": decisions,
        })
        return EXIT_YES
    result = fpt.solve_above_min(inst, _target_k(args, inst))
    _emit({
        "answer": result.answer,
        "witness": _pairs_json(inst, result.witness) if result.witness is not None else None,
        "t": result.t,
        "stats": {
            "subsets_tried": result.stats.subsets_tried,
            "branch_nodes": result.stats.branch_nodes,
            "max_branch_nodes": result.stats.max_branch_nodes,
        },
    })
    return EXIT_YES if result.answer else EXIT_NO


def _cmd_reduce(args) -> int:
    graph = hardness.parse_graph(_read_text(args.graph))
    art = hardness.reduce_clique(graph, args.k)
    meta = {
        "delta": art.delta,
        "k_hat": art.k_hat,
        "t": art.t,
        "fallback": art.fallback,
        "name_maps": art.name_maps,
    }
    text = serialize(art.inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(args.out + ".meta.json", "w", encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2)
            handle.write("\n")
        _emit({"written": args.out, **meta})
    else:
        _emit({"instance": text, **meta})
    return EXIT_YES


def _cmd_verify(args) -> int:
    graph = hardness.parse_graph(_read_text(args.graph))
    report = hardness.verify_reduction(graph, args.k)
    _emit({
        "clique": list(report.clique) if report.clique else None,
        "clique_answer": report.clique_answer,
        "reduction_answer": report.reduction_answer,
        "agree": report.agree,
        "fallback": report.fallback,
        "delta": report.delta,
        "k_hat": report.k_hat,
        "t_expected": report.t_expected,
        "t_actual": report.t_actual,
        "optima_match": report.optima_match,
        "bal_opt": report.bal_opt,
        "ok": report.ok,
    })
    return EXIT_YES if report.ok else EXIT_NO


def _selftest_one(rng: random.Random, failures: list[str]) -> None:
    from .instance import parse_instance as reparse

    inst = random_instance(rng, max_side=5)
    opt = gs.optima(inst)
    if gs.blocking_pairs(inst, opt.mu_m) or gs.blocking_pairs(inst, opt.mu_w):
        failures.append("extreme matching unstable")
    if reparse(serialize(inst)) != inst or reparse(serialize(inst, "json"), "json") != inst:
        failures.append("serialization round trip failed")
    stable = oracle.enumerate_stable(inst)
    matched = None
    for mu in stable.matchings:
        people = {p for pair in mu.pairs for p in pair}
        if matched is None:
            matched = people
        elif matched != people:
            failures.append("matched sets differ across stable matchings")
    if opt.mu_m not in stable.matchings or opt.mu_w not in stable.matchings:
        failures.append("extreme matching missing from enumeration")
    for k in (max(opt.o_m, opt.o_w) - 1, stable.bal_opt, opt.o_m + opt.o_w):
        want = oracle.decide_above_min(inst, k)
        got = fpt.solve_above_min(inst, k)
        if want.answer != got.answer:
            failures.append(f"solver disagrees with the oracle at k={k}")
        if got.answer:
            if gs.blocking_pairs(inst, got.witness):
                failures.append(f"solver witness unstable at k={k}")
            elif gs.objectives(inst, got.witness).balance > k:
                failures.append(f"solver witness too costly at k={k}")


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    failures: list[str] = []
    for _ in range(args.count):
        _selftest_one(rng, failures)
    _emit({
        "instances": args.count,
        "seed": args.seed,
        "passed": not failures,
        "failures": failures,
    })
    return EXIT_YES if not failures else EXIT_NO


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsm",
        description="Balanced stable marriage toolkit: optima, exhaustive "
        "enumeration, kernelization, the parameterized solver and the "
        "clique reduction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("optima", help="man- and woman-optimal matchings and costs")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.set_defaults(func=_cmd_optima)

    p = sub.add_parser("check", help="list the blocking pairs of a matching")
    p.add_argument("instance")
    p.add_argument("matching", help="file of 'man woman' lines")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("enumerate", help="all stable matchings (exhaustive search)")
    p.add_argument("instance")
    p.add_argument("--limit", type=int, default=oracle.DEFAULT_MAX_MEN,
                   help="search-size bound on men after fixing forced pairs")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("kernelize", help="shrink an above-min balance question")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--trace", action="store_true", help="include the rule log")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("solve", help="decide whether some stable matching has balance at most k")
    p.add_argument("instance")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--optimize", action="store_true",
                   help="binary-search the minimal achievable balance instead")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="build the clique reduction instance")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None, help="write the instance here plus a .meta.json sidecar")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="cross-check the reduction against clique brute force")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("selftest", help="run the invariant suite on random instances")
    p.add_argument("--seed", type=int, default=20240807)
    p.add_argument("--count", type=int, default=25)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError, GapError, gs.InvalidMatching,
            oracle.TooLarge, hardness.NotAClique, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
