#!/usr/bin/env python3
"""Benchmark of the bsm toolkit: one seeded workload per run, every answer checked.

    python3 perfbench/run.py --workload corpus --seed 20240807 --seconds 28 --trace 0

The workload runs in this process with one thread, as a closed loop: one
caller, and each operation starts when the previous one returns.  A run
makes floor(seconds / nominal pass time) passes of the workload, so both
sides of a comparison do the same work.  The enumeration and reduction
samples and the set-up probes are spread evenly between the main
operations.  Every time except set-up is scaled to a reference machine
speed by the probes of ``speed.py``, taken between operations.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced
run of the same schedule, and the tracing overhead against an untraced
run of it on the same seed.  The line before it holds the environment,
sample counts, failure details, the speed probes and the unscaled
metrics, which are also written under ``perfbench/out/``.

Exit status: 0 when every answer checks out, 1 when any operation raised
or answered wrongly, 2 when there is no ``src/bsm`` next to this directory.
"""

from __future__ import annotations

import os

# One thread for every numeric library; this must happen before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

DEFAULT_SEED = 20240807
WORKLOADS = ("corpus", "large", "optimize", "reduction")
SETUP_RUNS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A fresh process becoming ready for its first operation.
SETUP_CODE = "import sys; sys.path.insert(0, sys.argv[1]); import bsm"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def setup_once() -> None:
    """A fresh interpreter starts and imports bsm, and exits."""
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC)],
        check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
    )


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail_percentile(count: int) -> float:
    """The highest ladder percentile with at least ten samples beyond it.

    Below 20 samples no percentile qualifies and the median stands in.
    """
    return next((p for p in TAIL_LADDER if count * (100 - p) / 100 >= 10), 50.0)


def interleave(groups: dict[str, list], setup_probes: int) -> list[tuple[str, object]]:
    """The main ops in order, with the other groups and the set-up probes
    (``None``) spread evenly between them.

    Timing a side sample in one burst would catch the machine in a single
    mood; spread over the run, its median sees what the main loop sees.
    """
    spread = []
    for rank, (label, ops) in enumerate({**groups, "setup": [None] * setup_probes}.items()):
        spread += [((i + 0.5) / len(ops), rank, label, op) for i, op in enumerate(ops)]
    spread.sort(key=lambda item: item[:2])
    return [(label, op) for _, _, label, op in spread]


def failure(op, outcome, check) -> str | None:
    """What is wrong with one operation's outcome, or None when it is right."""
    if isinstance(outcome, Exception):
        problem = f"raised {outcome!r}"
    else:
        try:
            problem = check(op, outcome)
        except Exception as exc:  # noqa: BLE001 - a check that cannot finish fails the op
            problem = f"check raised {exc!r}"
    return f"{op.kind} {op.key}: {problem}" if problem else None


def run_schedule(items, tr, execute, check, speed=None):
    """Closed loop over (label, op) items; (start, end) per item by label, and problems.

    Each outcome is checked as soon as its timing ends, so no answer is
    kept beyond its check.  An operation that raises is recorded and the
    loop goes on: it counts as failed.  A ``None`` op is a set-up probe.
    With ``speed``, the machine's speed is probed between items.
    """
    spans: dict[str, list] = {label: [] for label, _ in items}
    problems = []
    for label, op in items:
        if speed is not None:
            speed.maybe_probe()
        began = time.perf_counter()
        if op is None:
            setup_once()
            spans[label].append((began, time.perf_counter()))
            continue
        try:
            with tr.op(op.kind):
                outcome = execute(op, tr)
        except Exception as exc:  # noqa: BLE001 - reported as a failed op
            outcome = exc
        spans[label].append((began, time.perf_counter()))
        problem = failure(op, outcome, check)
        if problem:
            problems.append(problem)
    if speed is not None:
        speed.probe()
    return spans, problems


def durations(spans, speed=None) -> dict[str, list[float]]:
    """Seconds per item by label; with ``speed``, scaled to the reference speed.

    Set-up probes are never scaled: starting a process is mostly exec,
    mapping and page faults, which the speed probe does not track.
    """
    def scale(label, began):
        return speed.factor(began) if speed and label != "setup" else 1.0

    return {
        label: [(end - began) * scale(label, began) for began, end in items]
        for label, items in spans.items()
    }


def end_to_end(latencies, peak_rss_mb: float, tail_p: float) -> dict[str, float]:
    main_lat = latencies["main"]
    return {
        "ops_per_s": len(main_lat) / sum(main_lat),
        "latency_ms_p50": 1e3 * statistics.median(main_lat),
        "latency_ms_tail": 1e3 * percentile(main_lat, tail_p),
        "setup_s": statistics.median(latencies["setup"]),
        "peak_rss_mb": peak_rss_mb,
        "enumerate_ms_p50": 1e3 * statistics.median(latencies["enumerate"]),
        "reduce_ms_p50": 1e3 * statistics.median(latencies["reduce"]),
    }


UNITS = {"ops_per_s": "1/s", "latency_ms_p50": "ms", "latency_ms_tail": "ms", "setup_s": "s",
         "peak_rss_mb": "MB", "enumerate_ms_p50": "ms", "reduce_ms_p50": "ms"}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None  # a checkout without git metadata


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bsm" / "__init__.py").is_file():
        print(f"error: no bsm package to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    import bsm
    import workloads
    from speed import Speed
    from tracing import NullTracer, Tracer

    if not Path(bsm.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported bsm from {bsm.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    passes = max(1, int(args.seconds // workloads.NOMINAL_PASS_S[args.workload]))
    clock = [time.perf_counter()]
    work = workloads.build(args.workload, args.seed, passes, args.tiny)
    # The inputs and references live until the run ends: move them out of
    # the collector's way, so collections inside the ops scan only what the
    # ops themselves allocate.
    gc.collect()
    gc.freeze()
    clock.append(time.perf_counter())
    groups = {"main": work.ops, "enumerate": work.enumerate_ops, "reduce": work.reduce_ops}

    def run(tr, probes, speed):
        items = interleave(groups, probes)
        return run_schedule(items, tr, workloads.execute, workloads.check, speed)

    speed = Speed()
    if args.trace:
        # The same schedule untraced, then traced: the difference is the overhead.
        untraced, problems = run(NullTracer(), 0, speed)
        tracer = Tracer()
        with tracer.installed():
            spans, more = run(tracer, 0, speed)
        problems += more
    else:
        setup_once()  # warm-up: the first start also writes the bytecode caches
        spans, problems = run(NullTracer(), 1 if args.tiny else SETUP_RUNS, speed)
    attempted = (1 + args.trace) * sum(len(ops) for ops in groups.values())
    clock.append(time.perf_counter())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    latencies = durations(spans, speed)
    main_lat = latencies["main"]
    busy = sum(main_lat)
    tail_p = tail_percentile(len(main_lat))
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": passes,
        "tiny": args.tiny,
        "trace": args.trace,
        "env": environment(),
        "samples": {label: len(values) for label, values in latencies.items()},
        "latency_tail_percentile": tail_p,
        "failed_ratio": len(problems) / attempted,
        "failures": problems[:20],
        "phase_s": {"build": clock[1] - clock[0], "loop": clock[2] - clock[1]},
        "speed": speed.summary(),
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in tracer.layer_metrics().items()}
        untraced_busy = sum(durations(untraced, speed)["main"])
        metrics["trace.overhead_pct"] = {"value": 100 * (busy / untraced_busy - 1), "unit": "%"}
        detail.update({
            "untraced_s": untraced_busy,
            "traced_s": busy,
            "layers": tracer.layer_table(),
            "spans": str(OUT / f"spans-{args.workload}-{args.seed}.json"),
        })
    else:
        metrics = {name: {"value": value, "unit": UNITS[name]}
                   for name, value in end_to_end(latencies, peak_rss_mb, tail_p).items()}
        detail["unscaled"] = end_to_end(durations(spans), peak_rss_mb, tail_p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": metrics,
    }

    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer.write(detail["spans"])
    record = OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "result": result}, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
