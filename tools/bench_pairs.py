"""Run the benchmark on a git revision and on the working tree, in pairs.

Usage:  python tools/bench_pairs.py REV --out BENCH_n.json
            [--pairs grid_fine=10 campaign=5 far_field=5]
            [--description TEXT]

Extracts REV's files with `git archive` into a temporary directory (set
TMPDIR to move it, removed on exit; nothing is written under .git) and
runs `bench/run.py` from the root of that tree and of the working tree,
each importing plap from its own src/, for BENCHMARK.json's `run_seconds`.
For each workload the pairs use seeds 1011, 1012, ...; REV runs first in
the 1st, 3rd, ... pair and the working tree first in the others.  Then
each side runs once with `--trace 1` on seed 1011.  The pairs and the
traced runs go workload by workload, in the order given.

The JSON file written holds, per workload: the seeds; each side's `failed`
and `correct` per run and the raw `# seconds:` line bench/run.py prints;
whether the lines naming failed operations are the same on both sides in
every pair; and for each end-to-end metric of
BENCHMARK.json each side's runs, quartiles and median, and the number of
pairs in which the working tree reads lower and higher.  It also holds both
sides' traced metrics per workload, and one summary line per workload and
end-to-end metric with the median ratio, the pair counts and the parent's
interquartile range (the gap a claimed gain must exceed).
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import REPO, extract

SIDES = ("parent", "change")
FIRST_SEED = 1011


def bench(tree, workload, seed, seconds, trace):
    """(result JSON, machine info, lines naming failed operations, the
    `# seconds:` line or None for a traced run) of one run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    machine = next(json.loads(line[len("# machine "):]) for line in lines
                   if line.startswith("# machine "))
    failed_ops = [line for line in lines if line.startswith("# op ")]
    seconds = next((line for line in lines if line.startswith("# seconds:")),
                   None)
    return json.loads(lines[-1]), machine, failed_ops, seconds


def cpu_name():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def quartiles(runs):
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def workload_entry(seeds, runs, metric_units):
    """The per-workload record: runs[side] lists each pair's bench results."""
    entry = {
        "seeds": seeds,
        "failed": {s: [r["failed"] for r, _, _ in runs[s]] for s in SIDES},
        "correct": {s: [r["correct"] for r, _, _ in runs[s]] for s in SIDES},
        "seconds": {s: [sec for _, _, sec in runs[s]] for s in SIDES},
        "metrics": {},
        "failed_ops_identical": all(
            a == b for (_, a, _), (_, b, _) in zip(runs["parent"],
                                                   runs["change"])),
    }
    for name, unit in metric_units.items():
        vals = {s: [r["metrics"][name]["value"] for r, _, _ in runs[s]]
                for s in SIDES}
        pairs = list(zip(vals["parent"], vals["change"]))
        entry["metrics"][name] = {
            "unit": unit,
            "parent": quartiles(vals["parent"]),
            "change": quartiles(vals["change"]),
            "change_lower_pairs": sum(c < p for p, c in pairs),
            "change_higher_pairs": sum(c > p for p, c in pairs),
            "runs_parent": vals["parent"],
            "runs_change": vals["change"],
        }
    return entry


def summary(workload, name, m):
    base, new = m["parent"]["median"], m["change"]["median"]
    ratio = f"{new / base:.3f}x" if base else "n/a"
    pairs = len(m["runs_parent"])
    return (f"{workload} {name}: median {base:.6g} -> {new:.6g} {m['unit']} "
            f"({ratio}); change lower in {m['change_lower_pairs']} and higher "
            f"in {m['change_higher_pairs']} of {pairs} pairs; parent IQR "
            f"{m['parent']['q3'] - m['parent']['q1']:.3g}")


def parse_pairs(items):
    pairs = {}
    for item in items:
        workload, _, count = item.partition("=")
        if not count.isdigit() or int(count) < 1:
            raise argparse.ArgumentTypeError(f"--pairs wants W=N, got {item!r}")
        pairs[workload] = int(count)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--pairs", nargs="+", metavar="W=N",
                        default=["grid_fine=10", "campaign=10",
                                 "far_field=10"],
                        help="pairs per workload, run in this order")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    try:
        pairs = parse_pairs(args.pairs)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    metric_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    rev = subprocess.run(["git", "-C", str(REPO), "rev-parse", "--short",
                          args.rev], check=True, capture_output=True,
                         text=True).stdout.strip()

    out = {"description": args.description,
           "command": (
               f"python3 bench/run.py --workload W --seed S --seconds "
               f"{seconds:g} --trace 0, run from the root of each tree "
               f"(parent: git archive of {rev}; change: the working tree); "
               f"seeds {FIRST_SEED}, {FIRST_SEED + 1}, ..., one "
               "pair per seed, parent first in the 1st, 3rd, ... pair; "
               f"workloads in the order {', '.join(pairs)}. Traced rows: "
               f"--trace 1, seed {FIRST_SEED}, one run per side."),
           "machine": None, "workloads": {},
           f"traced_seed_{FIRST_SEED}": {}, "notes": []}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {"parent": extract(args.rev, Path(tmp) / "parent"),
                 "change": REPO}
        for workload, count in pairs.items():
            seeds = [FIRST_SEED + i for i in range(count)]
            runs = {s: [] for s in SIDES}
            for i, seed in enumerate(seeds):
                for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                    result, machine, failed_ops, secs = bench(
                        trees[side], workload, seed, seconds, 0)
                    runs[side].append((result, failed_ops, secs))
                    print(f"{workload} seed {seed} {side}: {secs} "
                          f"{json.dumps(result['metrics'])}", flush=True)
            out["machine"] = {**machine, "cpu": cpu_name()}
            entry = workload_entry(seeds, runs, metric_units)
            out["workloads"][workload] = entry
            out["notes"] += [summary(workload, name, m)
                             for name, m in entry["metrics"].items()]
            traced = {}
            for side in SIDES:
                result, _, _, _ = bench(trees[side], workload, FIRST_SEED,
                                        seconds, 1)
                traced[side] = {
                    "correct": result["correct"], "failed": result["failed"],
                    **{k: v["value"] for k, v in result["metrics"].items()}}
            out[f"traced_seed_{FIRST_SEED}"][workload] = traced
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    for line in out["notes"]:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
