"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload desk-run --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from `src/`
there, never from an installed copy.  With `--trace 0` the result holds the
end-to-end metrics (setup_s, op_s, peak_rss_mb); with `--trace 1` the
per-layer metrics, measured by wrapping the program's public functions and
layer methods (see layertrace.py).  Inputs and outputs go under
`.perfbench_out/<workload>/`, which later runs of the workload reuse; a
traced run writes its spans to `.perfbench_out/trace-<workload>-seed<seed>.jsonl`.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()  # the fixed point set-up time is counted from

import argparse
import fcntl
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path

from checks import CheckFailed, require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("desk-run", "score-explain", "fuse-large")
END_TO_END = {"setup_s": "s", "op_s": "s", "peak_rss_mb": "MB"}


def import_program() -> float:
    """Import hybridens from this checkout's src/, or exit without a result.

    Returns the seconds from the start of this script until the program
    and numpy are loaded."""
    package = SRC / "hybridens"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import hybridens

    if Path(hybridens.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported hybridens from {hybridens.__file__}, not {package}")
    return time.perf_counter() - STARTED


def peak_rss_mb() -> float:
    """Larger of this process's peak RSS and that of any child waited for."""
    peaks = (resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return max(peaks) / 1024.0


def touch_marker(directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    marker = directory / ".perfbench-marker"
    marker.touch()
    return marker


def prune_stale(directory: Path, marker: Path) -> None:
    """Delete the files under `directory` last written before `marker` was
    touched: files of an earlier run that this run did not write again."""
    since = marker.stat().st_mtime_ns
    for path in directory.rglob("*"):
        if path.is_file() and path.stat().st_mtime_ns < since:
            path.unlink()


def measure(workload, seed: int, seconds: float, tracer, work: Path) -> dict:
    """Run whole operations for `seconds` and check the last one's outputs.

    The set-up runs `setup_repeats` times, each timed from its own start:
    half before the operations, whose inputs come from the last of these,
    and the rest after them, so that the median samples the machine at both
    ends of the run.  Each set-up and the operations write into the same
    directories on every run: on this kind of disk, creating files costs
    between 3 and 30 times more from one directory to the next, while
    rewriting existing ones costs about the same each time.  Files a run
    did not write again are deleted before they could be used or checked.
    """
    setup_s, fingerprints = [], set()

    def set_up(rep: int) -> dict:
        marker = touch_marker(work / f"setup{rep}")
        t0 = time.perf_counter()
        inputs = workload.setup(work / f"setup{rep}", seed)
        setup_s.append(time.perf_counter() - t0)
        prune_stale(work / f"setup{rep}", marker)
        fingerprints.add(inputs.get("fingerprint"))
        return inputs

    before = (workload.setup_repeats + 1) // 2
    for rep in range(before):
        inputs = set_up(rep)

    out = work / "out"
    marker = touch_marker(out)
    op_s, attempted, failed, result = [], 0, 0, None
    started = time.perf_counter()
    while not attempted or time.perf_counter() - started < seconds:
        attempted += 1
        body = lambda: workload.operate(inputs, out)  # noqa: E731
        try:
            t0 = time.perf_counter()
            result = tracer.root(body) if tracer else body()
            op_s.append(time.perf_counter() - t0)
        except Exception:
            failed += 1
            traceback.print_exc()
    if not op_s:
        sys.exit(f"perfbench: all {attempted} operations failed")
    prune_stale(out, marker)
    workload.check(inputs, out, result)
    for rep in range(before, workload.setup_repeats):
        set_up(rep)
    require(len(fingerprints) == 1, "repeated set-ups of one seed gave different inputs")
    return {"setup_s": setup_s, "op_s": op_s, "attempted": attempted, "failed": failed}


def traced_metrics(tracer, layertrace, microcnn, seed: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, after checking they cover op_s."""
    values = tracer.metrics()
    values.update(layertrace.kernel_timings(microcnn, seed))
    ops = tracer.op_seconds()
    covered = sum(v for k, v in values.items()
                  if k.endswith("_s") and not k.endswith(".incl_s") and k != "process.cpu_s")
    mean_op = statistics.fmean(ops)
    require(abs(covered - mean_op) <= 1e-9 * mean_op,
            f"self times sum to {covered} s but the traced op_s is {mean_op} s")
    print(f"traced op_s {mean_op:.4f} s over {len(ops)} operation(s)")
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_s = import_program()
    import layertrace
    from hybridens import microcnn
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = (layertrace.metric_specs(microcnn) if args.trace
             else {name: (unit, "lower") for name, unit in END_TO_END.items()})
    listed = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    if listed != {name: unit for name, (unit, _) in specs.items()}:
        sys.exit("perfbench: metric names or units differ from BENCHMARK.json")

    work = OUT / workload.name
    work.mkdir(parents=True, exist_ok=True)
    lock = open(OUT / f"{workload.name}.lock", "w")
    try:
        fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        sys.exit(f"perfbench: another run of {workload.name} is using {work}")
    tracer = layertrace.Tracer() if args.trace else None
    try:
        if tracer:
            tracer.install()
        stats = measure(workload, args.seed, args.seconds, tracer, work)
        if tracer:
            tracer.uninstall()
            values = traced_metrics(tracer, layertrace, microcnn, args.seed)
            tracer.write_spans(OUT / f"trace-{workload.name}-seed{args.seed}.jsonl")
        else:
            values = {"setup_s": import_s + statistics.median(stats["setup_s"]),
                      "op_s": statistics.median(stats["op_s"]),
                      "peak_rss_mb": peak_rss_mb()}
    except (CheckFailed, FileNotFoundError) as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        if tracer:
            tracer.uninstall()
        lock.close()

    for name, value in values.items():
        print(f"{workload.name} {name} {value:.6g} {specs[name][0]}")
    print(f"{workload.name} import {import_s:.4f} s")
    for name in ("setup_s", "op_s"):
        print(f"{workload.name} {name} of each repeat: "
              + " ".join(f"{t:.4f}" for t in stats[name]))
    print(f"{workload.name}: {len(stats['setup_s'])} set-ups, "
          f"{stats['attempted']} operations attempted, {stats['failed']} failed")
    metrics = {name: {"value": values[name], "unit": specs[name][0]} for name in specs}
    print(json.dumps({"correct": True, "attempted": stats["attempted"],
                      "failed": stats["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
