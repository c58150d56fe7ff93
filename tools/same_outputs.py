"""Byte-compare plap's outputs at a git revision with the working tree.

Usage:  python tools/same_outputs.py REV

Extracts REV's files with `git archive` into a temporary directory, runs
the same plap commands on that tree and on the working tree, and compares
their output trees, stdout and exit codes byte for byte.  Prints each
difference; exits 1 if there is one and 0 otherwise.  A CSV file that
differs only in its numbers is reported with how many of them differ and
the largest gap in float64 ulps (the count of doubles from one value to the
other), so that a change at rounding level reads as one.  Fields are split on commas, `=`, whitespace
and the JSON characters `{}[]:"`, so the numbers on comment lines such as
report.csv's `# 01_indicial_roots/...: target=0 measured=... tol=...` and
a profile CSV's `# {"alpha": 1.0, ..., "shoot_param": -2.0}` count as
numbers.  The commands are:
- `plap all --seed s` for s = 0..19;
- `roots` and `grid` on README's example configs, `roots` at n = 8,
  p = 1.05, mu = -1e307 (a Newton step on gamma itself), at the critical
  weight n = 4, p = 2, a = 1, mu = -3 and at n = 5, p = 1.05, a = 0.5,
  mu = 1e-300 (a root below the smallest double), and `grid` on a 49 x 74
  interior, whose even axis the multigrid coarsens by the m // 2 rule, and
  at xi = (1, 0) and at p = 2, whose Newton matrices leave out exact-zero
  couplings;
- `shoot`, `martin` and `blowup` on {"params": {"n": 3, "p": 2.0, "lam": 1.0}};
- `bochner` on {};
- five error paths, so that a change that moves an exit code shows up:
  `roots` with mu above mu_bar, `shoot` with 30 grid points (6 in the decay
  fit's window), `martin` at t = 1.5 (below r0 + 1) and `blowup` with
  window 20 (translates outside the shot), each a config error, and `grid`
  on boundary data that overflow float64, a failed check.
Each tree runs as `python -m plap.cli` with only its own src/ on PYTHONPATH.
The extracted tree and all outputs live under one temporary directory (set
TMPDIR to move it), removed on exit; nothing is written under .git.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import REPO, extract

SEEDS = range(20)
SHOT_PARAMS = {"params": {"n": 3, "p": 2.0, "lam": 1.0}}
CONFIGS = {
    "roots": {"params": {"n": 4, "p": 2.0, "a": 0.0, "mu": 0.75}},
    "grid": {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "xi": [0.6, 0.8],
             "rect": [0.0, 0.0, 1.0, 1.0], "h": 0.015625, "tol": 1e-9},
    "shoot": SHOT_PARAMS,
    "martin": SHOT_PARAMS,
    "blowup": SHOT_PARAMS,
    "bochner": {},
}


GRID_EXTRA = {
    "grid_even_axis": {"params": {"n": 4, "p": 1.5, "lam": 2.5},
                       "xi": [0.6, 0.8], "rect": [0, 0, 1, 1.5], "h": 0.02,
                       "tol": 1e-9},
    "grid_xi_1_0": {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "xi": [1.0, 0.0],
                    "rect": [0, 0, 1, 1], "h": 0.03125, "tol": 1e-9},
    "grid_p2": {"params": {"n": 4, "p": 2.0, "lam": 2.0}, "xi": [0.6, 0.8],
                "rect": [0, 0, 1, 1], "h": 0.03125, "tol": 1e-9},
}


# roots on the branches plap all rarely draws: the Newton step on gamma
# itself (one ulp of ln|gamma| above _ROOT_RTOL), the critical weight
# a = (n-p)/p with its closed form, and a root below the smallest double
ROOTS_EXTRA = {
    "roots_newton_on_gamma": {"params": {"n": 8, "p": 1.05, "mu": -1e307}},
    "roots_critical_weight": {"params": {"n": 4, "p": 2.0, "a": 1.0,
                                         "mu": -3.0}},
    "roots_tiny_root": {"params": {"n": 5, "p": 1.05, "a": 0.5,
                                   "mu": 1e-300}},
}


ERROR_PATHS = {
    "roots_mu_above_mu_bar": ("roots",
                              {"params": {"n": 4, "p": 2.0, "mu": 5.0}}),
    "shoot_grid_points_30": ("shoot", {**SHOT_PARAMS, "grid_points": 30}),
    "martin_t_1.5": ("martin", {**SHOT_PARAMS, "t": 1.5}),
    "blowup_window_20": ("blowup", {**SHOT_PARAMS, "window": 20}),
    "grid_overflowing_data": ("grid", {"params": {"n": 3, "p": 1.2,
                                                  "lam": 500}, "h": 0.125}),
}


def commands():
    """(name, plap arguments before --out, config or None) of each run."""
    for seed in SEEDS:
        yield f"all_seed{seed}", ["all", "--seed", str(seed)], None
    for sub, cfg in CONFIGS.items():
        yield sub, [sub], cfg
    for name, cfg in ROOTS_EXTRA.items():
        yield name, ["roots"], cfg
    for name, cfg in GRID_EXTRA.items():
        yield name, ["grid"], cfg
    for name, (sub, cfg) in ERROR_PATHS.items():
        yield name, [sub], cfg


def read_tree(root):
    """Relative path -> bytes of every file under root ({} if absent)."""
    if not root.is_dir():
        return {}
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run(tree, work, args, cfg):
    """Exit code, stdout and output tree of one plap run from `tree`."""
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "plap.cli", *args, "--out", str(work / "out")]
    if cfg is not None:
        (work / "config.json").write_text(json.dumps(cfg))
        argv += ["--config", str(work / "config.json")]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
    return proc.returncode, proc.stdout, read_tree(work / "out")


def csv_fields(data):
    """(text fields and separators with None where a number stood, numbers)
    of a CSV file's bytes, split into lines and on commas, `=`, whitespace
    and the JSON characters `{}[]:"`."""
    text, numbers = [], []
    for line in data.decode().splitlines():
        for field in re.split(r'([,=\s{}\[\]:"])', line):
            try:
                numbers.append(float(field))
                text.append(None)
            except ValueError:
                text.append(field)
        text.append("\n")
    return text, numbers


def ulp_gap(a, b):
    """Number of float64 steps from a to b (0 if equal or both NaN, inf if
    only one is NaN)."""
    if math.isnan(a) or math.isnan(b):
        return 0 if math.isnan(a) and math.isnan(b) else math.inf
    # sign-magnitude bit patterns onto one ordered integer line
    ia, ib = (struct.unpack("<q", struct.pack("<d", x))[0] for x in (a, b))
    ia, ib = (i if i >= 0 else -(i & 0x7FFF_FFFF_FFFF_FFFF) for i in (ia, ib))
    return abs(ia - ib)


def number_gaps(path, old, new):
    """(numbers that differ, numbers, largest gap in ulps) between two
    versions of a CSV file, or None when they differ in more than their
    numbers or the file is of another kind."""
    if Path(path).suffix != ".csv":
        return None
    try:
        (layout_old, numbers_old), (layout_new, numbers_new) = (
            csv_fields(old), csv_fields(new))
    except UnicodeDecodeError:
        return None
    if layout_old != layout_new or len(numbers_old) != len(numbers_new):
        return None
    gaps = [ulp_gap(a, b) for a, b in zip(numbers_old, numbers_new)]
    differ = [gap for gap in gaps if gap]
    return len(differ), len(gaps), max(differ, default=0)


def differences(name, base, head):
    """One line per differing exit code, stdout or output file."""
    (code_b, out_b, files_b), (code_h, out_h, files_h) = base, head
    diffs = []
    if code_b != code_h:
        diffs.append(f"{name}: exit code {code_b} -> {code_h}")
    if out_b != out_h:
        diffs.append(f"{name}: stdout differs")
    for path in sorted(set(files_b) | set(files_h)):
        if path not in files_h:
            diffs.append(f"{name}: {path} only at the revision")
        elif path not in files_b:
            diffs.append(f"{name}: {path} only in the working tree")
        elif files_b[path] != files_h[path]:
            gaps = number_gaps(path, files_b[path], files_h[path])
            detail = "" if gaps is None else (
                f" in {gaps[0]} of {gaps[1]} numbers, by at most "
                f"{gaps[2]} ulps")
            diffs.append(f"{name}: {path} differs{detail}")
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        runs, diffs = list(commands()), []
        base_tree = extract(args.rev, Path(tmp) / "rev")
        for name, plap_args, cfg in runs:
            base = run(base_tree, Path(tmp) / "base" / name, plap_args, cfg)
            head = run(REPO, Path(tmp) / "head" / name, plap_args, cfg)
            diffs += differences(name, base, head)
    for line in diffs:
        print(line)
    print(f"{len(runs)} commands, {len(diffs)} difference(s) against {args.rev}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
