"""Per-layer tracing from outside the program.

Wrappers are installed on the module attributes that the layers call each
other through, so a call from ``fpt`` into ``bsm.gs.optima`` lands in the
tracer without any change under ``src/``.  Spans are kept in memory and
written out when the run ends.  The hot ``gs`` entry points can be called
millions of times in one run, so they are aggregated into call counts,
busy time and self time instead of one span per call.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns

from bsm import fpt, gs, hardness

# (module, attribute, span name) of every wrapped entry point.
WRAPPED = (
    (fpt, "kernelize", "kernel.kernelize"),
    (gs, "optima", "gs.optima"),
    (gs, "blocking_pairs", "gs.blocking_pairs"),
    (gs, "objectives", "gs.objectives"),
    (hardness, "reduce_clique", "hardness.reduce_clique"),
    (hardness, "clique_bruteforce", "hardness.clique_bruteforce"),
)

HOT = frozenset({"gs.optima", "gs.blocking_pairs", "gs.objectives"})

KERNEL_RULES = (
    "clean_suffix",
    "restrict_matched",
    "remove_happy_pair",
    "truncate",
    "shrink",
    "add_dummies",
    "fill_gap",
    "bound_check",
    "bound_sad",
    "no_sad",
)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("instance.bytes"):
        return "bytes"
    return "count"


class NullTracer:
    """Untraced runs: every call goes straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def note_solve(self, result) -> None:
        pass

    def note(self, counter: str, amount: int) -> None:
        pass

    def op(self, kind):
        return nullcontext()

    def installed(self):
        return nullcontext()


class Tracer(NullTracer):
    """Spans and counters of one traced run.

    Only calls made inside an operation are recorded; the benchmark's own
    checks call the same functions outside any operation and pass through.
    """

    def __init__(self):
        self.stack: list[list] = []  # open frames: [name, start_ns, child_ns, span_id]
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, op_id)
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.kernel_sizes: list[int] = []
        self.op_id: int | None = None
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        if self.op_id is None:
            return fn(*args, **kwargs)
        frame = [name, perf_counter_ns(), 0, None]
        if name not in HOT:
            frame[3] = self._next_id
            self._next_id += 1
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame)

    def _close(self, frame) -> None:
        end = perf_counter_ns()
        self.stack.pop()
        name, start, child, span_id = frame
        duration = end - start
        self.calls[name] += 1
        self.total_ns[name] += duration
        self.self_ns[name] += duration - child
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
            self.spans.append((span_id, name, start, end, parent, self.op_id))

    @contextmanager
    def op(self, kind):
        self.op_id = self._next_id
        frame = [f"op.{kind}", perf_counter_ns(), 0, self._next_id]
        self._next_id += 1
        self.stack.append(frame)
        try:
            yield
        finally:
            self._close(frame)
            self.op_id = None

    # --- wrappers on the program's module attributes ------------------------

    @contextmanager
    def installed(self):
        """Wrap the entry points in ``WRAPPED`` for the duration of the block."""
        saved = [(module, attr, getattr(module, attr)) for module, attr, _ in WRAPPED]
        for (module, attr, original), (_, _, name) in zip(saved, WRAPPED):
            setattr(module, attr, self._wrap(name, original))
        try:
            yield
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)

    def _wrap(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if name == "kernel.kernelize":
                self._note_kernel(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_kernel(self, result) -> None:
        steps = result.trace.steps
        self.counts["kernel.trace_steps"] += len(steps)
        for step in steps:
            self.counts[f"kernel.steps.{step.rule}"] += 1
        if result.kernel is not None:
            self.kernel_sizes.append(len(result.kernel.men))

    def note_solve(self, result) -> None:
        """Counters of one ``solve_above_min`` decision, from its ``SolveStats``."""
        if self.op_id is None:
            return
        self.counts["fpt.decisions"] += 1
        self.counts["fpt.subsets_tried"] += result.stats.subsets_tried
        self.counts["fpt.branch_nodes"] += result.stats.branch_nodes
        self.counts["fpt.max_branch_nodes"] = max(
            self.counts["fpt.max_branch_nodes"], result.stats.max_branch_nodes
        )
        if not result.stats.subsets_tried:
            self.counts["kernel.decided"] += 1
        elif result.answer:
            self.counts["fpt.accepted"] += 1

    def note(self, counter: str, amount: int) -> None:
        if self.op_id is not None:
            self.counts[counter] += amount

    # --- results ---------------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as (value, unit); 0 for a layer the workload never entered."""
        s = lambda ns: ns / 1e9  # noqa: E731
        total, own, calls, counts = self.total_ns, self.self_ns, self.calls, self.counts
        decisions = counts["fpt.decisions"]
        solve_ns = total["fpt.solve_above_min"]
        # Kernelizations made by the solver; the benchmark calls kernelize no other way.
        branch_ns = solve_ns - total["kernel.kernelize"]
        metrics = {
            "instance.parse_s": s(total["instance.parse_instance"]),
            "instance.parse_calls": calls["instance.parse_instance"],
            "instance.serialize_s": s(total["instance.serialize"]),
            "instance.bytes_parsed": counts["instance.bytes_parsed"],
            "gs.optima_calls": calls["gs.optima"],
            "gs.optima_s": s(total["gs.optima"]),
            "gs.optima_per_decision": calls["gs.optima"] / decisions if decisions else 0.0,
            "gs.blocking_pairs_calls": calls["gs.blocking_pairs"],
            "gs.blocking_pairs_s": s(total["gs.blocking_pairs"]),
            "gs.objectives_calls": calls["gs.objectives"],
            "gs.objectives_s": s(total["gs.objectives"]),
            "kernel.kernelize_calls": calls["kernel.kernelize"],
            "kernel.kernelize_s": s(total["kernel.kernelize"]),
            "kernel.self_s": s(own["kernel.kernelize"]),
            "kernel.trace_steps": counts["kernel.trace_steps"],
        }
        for rule in KERNEL_RULES:
            metrics[f"kernel.steps.{rule}"] = counts[f"kernel.steps.{rule}"]
        sizes = self.kernel_sizes
        metrics.update({
            "kernel.decided_ratio": counts["kernel.decided"] / decisions if decisions else 0.0,
            "kernel.people_out": sum(sizes) / len(sizes) if sizes else 0.0,
            "fpt.branch_s": s(branch_ns),
            "fpt.self_s": s(own["fpt.solve_above_min"]),
            "fpt.subsets_tried": counts["fpt.subsets_tried"],
            "fpt.branch_nodes": counts["fpt.branch_nodes"],
            "fpt.max_branch_nodes": counts["fpt.max_branch_nodes"],
            "fpt.accept_ratio": (
                counts["fpt.accepted"] / counts["fpt.subsets_tried"]
                if counts["fpt.subsets_tried"] else 0.0
            ),
            "oracle.enumerate_calls": calls["oracle.enumerate_stable"],
            "oracle.enumerate_s": s(total["oracle.enumerate_stable"]),
            "oracle.stable_matchings": counts["oracle.stable_matchings"],
            "hardness.reduce_s": s(total["hardness.reduce_clique"]),
            "hardness.bruteforce_s": s(total["hardness.clique_bruteforce"]),
            "hardness.mask_search_s": s(own["hardness.verify_reduction"]),
            "hardness.candidates": counts["hardness.candidates"],
            "hardness.people": (
                counts["hardness.people"] / counts["hardness.reductions"]
                if counts["hardness.reductions"] else 0.0
            ),
        })
        return {name: (value, unit_of(name)) for name, value in metrics.items()}

    def layer_table(self) -> dict[str, dict]:
        """Calls, busy time and self time of every span name."""
        return {
            name: {
                "calls": self.calls[name],
                "busy_s": self.total_ns[name] / 1e9,
                "self_s": self.self_ns[name] / 1e9,
            }
            for name in sorted(self.calls)
        }

    def write(self, path) -> None:
        table = self.layer_table()
        payload = {
            "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
            "spans": self.spans,
            "aggregated": {name: table[name] for name in sorted(HOT & set(self.calls))},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")

