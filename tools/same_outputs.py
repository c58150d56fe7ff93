"""Byte-compare plap's outputs at a git revision with the working tree.

Usage:  python tools/same_outputs.py REV

Checks REV out into a temporary `git worktree`, runs the same plap commands
on that tree and on the working tree, and compares their output trees, stdout
and exit codes byte for byte.  Prints each difference; exits 1 if there is
one and 0 otherwise.  A CSV or PLF2 file that differs only in its numbers
is reported with how many of them differ and the largest gap in float64
ulps (the count of doubles from one value to the other), so that a change
at rounding level reads as one.  The commands are:
- `plap all --seed s` for s = 0..19;
- `roots` and `grid` on README's example configs, and `grid` on a 49 x 74
  interior, whose even axis the multigrid coarsens by the m // 2 rule, and
  at xi = (1, 0) and at p = 2, whose Newton matrices leave out exact-zero
  couplings;
- `shoot`, `martin` and `blowup` on {"params": {"n": 3, "p": 2.0, "lam": 1.0}};
- `bochner` on {}.
Each tree runs as `python -m plap.cli` with only its own src/ on PYTHONPATH.
The worktree and all outputs live under one temporary directory (set TMPDIR
to move it), removed on exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

from revision import REPO, worktree

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


def commands():
    """(name, plap arguments before --out, config or None) of each run."""
    for seed in SEEDS:
        yield f"all_seed{seed}", ["all", "--seed", str(seed)], None
    for sub, cfg in CONFIGS.items():
        yield sub, [sub], cfg
    for name, cfg in GRID_EXTRA.items():
        yield name, ["grid"], cfg


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


PLF2_HEADER = "<4sIIddd"  # magic, nx, ny, h, origin


def csv_fields(data):
    """(text fields with None where a number stood, numbers) of a CSV
    file's bytes, split into lines and on commas."""
    text, numbers = [], []
    for line in data.decode().splitlines():
        for field in line.split(","):
            try:
                numbers.append(float(field))
                text.append(None)
            except ValueError:
                text.append(field)
        text.append("\n")
    return text, numbers


def plf2_fields(data):
    """(magic, nx, ny and length, then h, the origin and the values) of a
    PLF2 grid file's bytes."""
    magic, nx, ny, *numbers = struct.unpack_from(PLF2_HEADER, data)
    values = data[struct.calcsize(PLF2_HEADER):]
    numbers += struct.unpack(f"<{len(values) // 8}d", values)
    return [magic, nx, ny, len(data)], numbers


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
    versions of a CSV or PLF2 file, or None when they differ in more than
    their numbers or the file is of another kind."""
    split = {".csv": csv_fields, ".plf2": plf2_fields}.get(Path(path).suffix)
    if split is None:
        return None
    try:
        (layout_old, numbers_old), (layout_new, numbers_new) = (
            split(old), split(new))
    except (UnicodeDecodeError, struct.error):
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
        with worktree(args.rev, Path(tmp) / "rev") as base_tree:
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
