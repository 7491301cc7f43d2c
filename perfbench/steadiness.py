"""Run every workload several times with distinct seeds and report the spread.

    python3 perfbench/steadiness.py --runs 10 --first-seed 1 --save .perfbench_out/set-a.json
    python3 perfbench/steadiness.py --compare .perfbench_out/set-a.json .perfbench_out/set-b.json

For each workload and end-to-end metric it prints the median, the first and
third quartiles (`statistics.quantiles(values, n=4)`), and the quartile
spread as a share of the median.  `--compare` prints, per metric, how far
the second set's median lies from the first's, next to the metric's bound
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def collect(workloads, runs: int, first_seed: int, seconds: int) -> dict:
    results: dict = {name: [] for name in workloads}
    for seed in range(first_seed, first_seed + runs):
        for name in workloads:
            cmd = [sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
            doc = json.loads(line) if line.startswith("{") else {}
            if proc.returncode != 0 or not doc.get("correct"):
                sys.exit(f"{name} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
            results[name].append(
                {"seed": seed, "attempted": doc["attempted"], "failed": doc["failed"],
                 **{k: v["value"] for k, v in doc["metrics"].items()}})
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k} {v['value']:.4f}" for k, v in doc["metrics"].items()), flush=True)
    return results


def summary(results: dict, metrics) -> list[str]:
    lines = ["| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median |",
             "|---|---|---|---|---|---|"]
    for name, rows in results.items():
        for metric in metrics:
            values = [r[metric] for r in rows]
            q1, med, q3 = statistics.quantiles(values, n=4)
            lines.append(f"| {name} | {metric} | {med:.4f} | {q1:.4f} | {q3:.4f} | "
                         f"{(q3 - q1) / med:.3f} |")
    return lines


def compare(first: dict, second: dict, bounds: dict) -> list[str]:
    lines = ["| workload | metric | median A | median B | B/A - 1 | bound |",
             "|---|---|---|---|---|---|"]
    for name in first:
        for metric, bound in bounds.items():
            a = statistics.median(r[metric] for r in first[name])
            b = statistics.median(r[metric] for r in second[name])
            lines.append(f"| {name} | {metric} | {a:.4f} | {b:.4f} | {b / a - 1:+.3f} | {bound} |")
    return lines


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--save", help="write the raw results to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"),
                        help="compare two saved result files instead of running")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        print("\n".join(summary(first, bounds) + [""] + summary(second, bounds) + [""]
                        + compare(first, second, bounds)))
        return 0
    results = collect(args.workloads, args.runs, args.first_seed, bench["run_seconds"])
    if args.save:
        Path(args.save).parent.mkdir(parents=True, exist_ok=True)
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    print("\n".join(summary(results, bounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
