#!/usr/bin/env python3
"""Steadiness check: repeat one workload over several seeds and report spreads.

    python3 perfbench/steady.py --workload corpus --runs 10
    python3 perfbench/steady.py --workload corpus --runs 10 --first-seed 101 \\
        --baseline perfbench/out/steady-corpus-1.json

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median, quartiles and spread (interquartile range
over median) against the metric's bound in ``BENCHMARK.json``.  A spread
above the bound fails; one above a third of it is flagged as not steady.
With ``--baseline`` (an earlier output of this script) it also reports
each median against the baseline median, which fails when it is worse by
more than the bound.  Exit status 1 when anything fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, command: list[str]) -> dict:
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"seed {seed}: exit status {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    """Median, quartiles and spread (q3 - q1) / median, as the driver takes them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    results = []
    for seed in seeds:
        result = run_once(args.workload, seed, bench["run_seconds"], bench["command"])
        results.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{name}={value['value']:.4g}" for name, value in result["metrics"].items()
        ), flush=True)

    baseline = json.loads(args.baseline.read_text())["summary"] if args.baseline else {}
    summary, ok = {}, all(r["correct"] for r in results)
    for name, spec in metrics.items():
        row = summarize([r["metrics"][name]["value"] for r in results])
        row["bound"] = spec["bound"]
        row["steady"] = row["spread"] < spec["bound"] / 3
        ok &= name == "setup_s" or row["spread"] <= spec["bound"]
        if name in baseline:
            base = baseline[name]["median"]
            worse = (row["median"] - base) / base
            if spec["better"] == "higher":
                worse = -worse
            row["worse_than_baseline"] = worse
            ok &= worse <= spec["bound"]
        summary[name] = row
        extra = ""
        if "worse_than_baseline" in row:
            extra = f" worse_than_baseline={row['worse_than_baseline']:+.3f}"
        print(f"{name:18s} median={row['median']:.4g} q1={row['q1']:.4g} q3={row['q3']:.4g} "
              f"spread={row['spread']:.3f} bound={spec['bound']} "
              f"{'steady' if row['steady'] else 'NOT STEADY'}{extra}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"steady-{args.workload}-{args.first_seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seeds": seeds, "results": results, "summary": summary,
    }, indent=1) + "\n")
    print(f"ok={ok} written {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
