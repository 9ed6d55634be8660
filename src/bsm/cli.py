"""Command-line surface: one verb per invocation, one JSON document on stdout.

The CLI reads the input, calls the library, prints what the library
returns and maps the outcome to an exit code; every record prints from its
own fields.  ``solve --optimize`` prints ``fpt.minimal_balance``, the
binary search for the least balance.

Exit codes: 0 for success or a yes answer, 1 for a no answer (or a failed
check), 2 for usage and input errors, 3 for an internal invariant failure
or any other error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from . import fpt, gs, hardness, kernel, oracle
from .instance import (
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
    """The text of a file, or of stdin for ``-``, without one leading byte order mark."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason})") from None
    return text.removeprefix("\ufeff")


def _read_instance(path: str) -> Instance:
    text = _read_text(path)
    fmt = "json" if text.lstrip()[:1] in ("{", "[") else "text"
    return parse_instance(text, fmt)


def _read_matching(path: str, inst: Instance) -> Matching:
    by_name = {p.name: p for p in inst.people}
    pairs = []
    seen = set()
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
        if man not in inst.man_index or woman not in inst.woman_index:
            raise gs.InvalidMatching(f"line {lineno}: expected 'man woman'")
        for person in (man, woman):
            if person in seen:
                raise gs.InvalidMatching(f"line {lineno}: {person} is matched twice")
            seen.add(person)
        pairs.append((man, woman))
    return Matching.of(pairs)


def _pairs_json(inst: Instance, mu: Matching | None) -> list[list[str]] | None:
    if mu is None:
        return None
    position = inst.man_index
    ordered = sorted(mu.pairs, key=lambda pair: position.get(pair[0], len(position)))
    return [[m.name, w.name] for m, w in ordered]


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
            "mu_m": asdict(gs.objectives(inst, opt.mu_m)),
            "mu_w": asdict(gs.objectives(inst, opt.mu_w)),
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
        "objectives": asdict(gs.objectives(inst, mu)),
    })
    return EXIT_YES if not blocking else EXIT_NO


def _cmd_enumerate(args) -> int:
    inst = _read_instance(args.instance)
    stable = oracle.enumerate_stable(inst, limit=args.limit)
    _emit([
        {
            "pairs": _pairs_json(inst, mu),
            "objectives": asdict(gs.objectives(inst, mu)),
        }
        for mu in stable.matchings
    ])
    return EXIT_YES


def _trace_json(trace: kernel.KernelTrace) -> list[dict]:
    return [{**step._asdict(), "affected": [p.name for p in step.affected]} for step in trace.steps]


def _non_negative(text: str) -> int:
    """Argparse type of ``--limit`` and of the target ``--k``: an int, and not below 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {value}")
    return value


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
        bal, final, decisions = fpt.minimal_balance(inst)
        _emit({"bal": bal, "witness": _pairs_json(inst, final.witness), "t": final.t, "decisions": decisions})
        return EXIT_YES
    result = fpt.solve_above_min(inst, _target_k(args, inst))
    _emit({
        "answer": result.answer,
        "witness": _pairs_json(inst, result.witness),
        "t": result.t,
        "stats": asdict(result.stats),
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
    _emit({**asdict(report), "ok": report.ok})
    return EXIT_YES if report.ok else EXIT_NO


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

    p = sub.add_parser("enumerate", help="all stable matchings, from the rotation poset")
    p.add_argument("instance")
    p.add_argument("--limit", type=_non_negative, default=oracle.DEFAULT_MAX_MEN,
                   help="most men that may change partner between the man- and "
                   "woman-optimal matchings")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("kernelize", help="shrink an above-min balance question")
    p.add_argument("instance")
    p.add_argument("--k", type=_non_negative, default=None)
    p.add_argument("--trace", action="store_true", help="include the rule log")
    p.set_defaults(func=_cmd_kernelize)

    p = sub.add_parser("solve", help="decide whether some stable matching has balance at most k")
    p.add_argument("instance")
    target = p.add_mutually_exclusive_group()  # the search neither starts from K nor reports t at K
    target.add_argument("--k", type=_non_negative, default=None)
    target.add_argument("--optimize", action="store_true",
                        help="binary-search the minimal achievable balance instead")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("reduce", help="build the clique reduction instance")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", default=None, help="write the instance here plus a .meta.json sidecar")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("verify", help="cross-check the reduction against a depth-first clique search")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValidationError, gs.InvalidMatching, oracle.TooLarge,
            hardness.GraphError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except Exception as e:
        # Not an input error: an invariant failed or a bug raised.  Some
        # exceptions, such as MemoryError, carry no text: name their type.
        print(f"internal error: {str(e) or type(e).__name__}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
