"""Byte-compare plap's outputs at a git revision with the working tree.

Usage:  python tools/same_outputs.py REV

Extracts REV's files with `git archive` into a temporary directory, runs
the same plap commands on that tree and on the working tree, and compares
their output trees, stdout, exit codes and error lines byte for byte.  The
error lines are the stderr lines that start with `plap:`, the one line
`main` prints per error; other stderr lines, such as numpy's
RuntimeWarnings, carry each tree's own path and are left out.  Prints each
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
  mu = 1e-300 (a root below the smallest double), with a float n = 4.0
  and at n = 3, p = 1.001, mu = 0.1, where gamma1 = 0 leaves a residual of
  0.1 that passes only within the change of f across one double, and
  `grid` on a 49 x 74 interior, whose even axis the multigrid coarsens
  by the m // 2 rule, on a 32 x 32 interior (h = 1/33 on the unit
  square), whose full-multigrid start interpolates from 16 to 32 nodes
  on both axes and so takes the cubic end weights of an even axis, at
  xi = (1, 0) and at p = 2, whose Newton matrices leave out exact-zero
  couplings, on README's example at tol 1e-6, whose only Newton step ends
  on its linearized residual (LINEAR_TOL_SHARE * tol) after 3 corrections
  where refinement to the field's rounding takes 7, at n = 5,
  p = 3.5829091416707226, lam = 1.38447965904892, xi at angle
  3.9830037047223485, h = 1/64 (draw 44 of seed 4 in tests/test_grid_pde.py),
  whose first step, ended on its linearized residual, leaves 1.007 tol, so
  that the solve takes a second Newton step an exact first step would not,
  and at p = 1.05, lam = 1, h = 1/32,
  xi = (cos 0.3, sin 0.3), where every Newton step ends in the float64 LU
  fallback of the refinement (a failed check, exit 1), and on the strips
  rect [0, 0, 1, 0.125] and [0, 0, 1, 0.1875] at h = 1/16, with 1 and 2
  interior nodes on y, where stencil arrays share a DIA diagonal, and on
  the unit square at h = 1/2, whose one interior node gives the smallest
  face arrays and a 1 x 1 stencil storage, and at p = 1.1, lam = 1,
  h = 1/32, whose field reaches about 8.5e4, so that its sup error of 6.8
  passes the bound 50 h^2 only relative to the data, and its
  sup |grad log v| of 8.12 meets an allowance of 8.62 (1103 with the
  absolute error);
- `shoot`, `martin` and `blowup` on {"params": {"n": 3, "p": 2.0, "lam": 1.0}},
  where the far-field series is exact and covers the whole shot, and
  `shoot` at (n, p, lam) = (4, 2.5, 1), whose series reach (about 18.7)
  lies inside the profile, and at (50, 1.5, 1), whose reach (about 180)
  lies beyond r_max + 35/(p alpha), so that the inward pass spans the
  whole profile, and at (4, 2, 1) with r_max = 1e6, where p alpha r_max is
  past 2e5 but the ln u quadrature stops at the series' reach (about 24);
- `bochner` on {};
- seventeen error paths, so that a change that moves an exit code or an
  error message shows up:
  - config errors (exit 2): `roots` with mu above mu_bar, with a = true
    (a bool is not a number) and with mu = inf (JSON's Infinity), `shoot`
    with 30 grid points (6 in the decay fit's window), `martin` at t = 1.5
    (below r0 + 1), `blowup` with window 20 (translates outside the shot),
    `bochner` with h_list [0.25, 0.125] (5 nodes per axis, fewer than
    the nested stencils need) and `grid` on rect [0, 0, 1e300, 1] at
    h = 1e-10 (a node count of inf on x, over the grid cap);
  - failed checks (exit 1) on valid configs whose numbers leave the
    double range: `grid` on boundary data that overflow float64 and on
    data that underflow to 0 (rect [-1000, 0, -999, 1], xi = (1, 0)),
    `roots` at n = 8, p = 1.001, mu = -1e307 (gamma2 beyond the largest
    double), `blowup` at gamma = 80 (r^-80 overflows on the power
    profile), `bochner` at lam = 1e6 (the oracle field overflows, NaN
    residuals) and at lam = 1e-300 (a zero residual, no refinement
    factor);
  - `martin` at n = 2000, whose direction e_1 has 2000 coordinates (a
    failed check), `grid` at p = 1.05, lam = 2, h = 1/32, whose 40
    Newton steps all end in the refinement's stall-at-floor exit (a
    failed solve), and `grid` on rect [200, 200, 201, 201] at h = 1/16,
    whose finite data give a Newton stencil that overflows (a failed
    solve).
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
    "grid_even_32": {"params": {"n": 4, "p": 3.0, "lam": 2.0},
                     "xi": [0.6, 0.8], "rect": [0, 0, 1, 1], "h": 1 / 33,
                     "tol": 1e-9},
    "grid_xi_1_0": {"params": {"n": 4, "p": 3.0, "lam": 2.0}, "xi": [1.0, 0.0],
                    "rect": [0, 0, 1, 1], "h": 0.03125, "tol": 1e-9},
    "grid_p2": {"params": {"n": 4, "p": 2.0, "lam": 2.0}, "xi": [0.6, 0.8],
                "rect": [0, 0, 1, 1], "h": 0.03125, "tol": 1e-9},
    "grid_p105_lu_fallback": {"params": {"n": 4, "p": 1.05, "lam": 1.0},
                              "xi": [math.cos(0.3), math.sin(0.3)],
                              "rect": [0, 0, 1, 1], "h": 0.03125,
                              "tol": 1e-9},
    "grid_strip_1_node": {"params": {"n": 4, "p": 3.0, "lam": 2.0},
                          "rect": [0, 0, 1, 0.125], "h": 0.0625, "tol": 1e-9},
    "grid_strip_2_nodes": {"params": {"n": 4, "p": 3.0, "lam": 2.0},
                           "rect": [0, 0, 1, 0.1875], "h": 0.0625,
                           "tol": 1e-9},
    "grid_one_node": {"params": {"n": 4, "p": 3.0, "lam": 2.0},
                      "rect": [0, 0, 1, 1], "h": 0.5, "tol": 1e-9},
    "grid_inexact_step": {**CONFIGS["grid"], "tol": 1e-6},
    "grid_p11_large_data": {**CONFIGS["grid"],
                            "params": {"n": 4, "p": 1.1, "lam": 1.0},
                            "h": 0.03125},
    "grid_share_second_step": {
        **CONFIGS["grid"],
        "params": {"n": 5, "p": 3.5829091416707226, "lam": 1.38447965904892},
        "xi": [math.cos(3.9830037047223485), math.sin(3.9830037047223485)]},
}


# shots on both sides of the far-field series' reach, and one whose
# p alpha r_max lies past the quadrature's span cap (see the docstring)
SHOOT_EXTRA = {
    "shoot_reach_inside": {"params": {"n": 4, "p": 2.5, "lam": 1.0}},
    "shoot_reach_beyond": {"params": {"n": 50, "p": 1.5, "lam": 1.0}},
    "shoot_wide_span": {"params": {"n": 4, "p": 2.0, "lam": 1.0},
                        "r_max": 1e6},
}


# roots on the branches plap all rarely draws: the Newton step on gamma
# itself (one ulp of ln|gamma| above _ROOT_RTOL), the critical weight
# a = (n-p)/p with its closed form, a root below the smallest double, a
# float n, which ProblemParams keeps as a float, and a root whose residual
# passes only within the change of f across one double
ROOTS_EXTRA = {
    "roots_newton_on_gamma": {"params": {"n": 8, "p": 1.05, "mu": -1e307}},
    "roots_critical_weight": {"params": {"n": 4, "p": 2.0, "a": 1.0,
                                         "mu": -3.0}},
    "roots_tiny_root": {"params": {"n": 5, "p": 1.05, "a": 0.5,
                                   "mu": 1e-300}},
    "roots_float_n": {"params": {"n": 4.0, "p": 2.0, "a": 0.0, "mu": 0.75}},
    "roots_one_double_residual": {"params": {"n": 3, "p": 1.001, "mu": 0.1}},
}


ERROR_PATHS = {
    "roots_mu_above_mu_bar": ("roots",
                              {"params": {"n": 4, "p": 2.0, "mu": 5.0}}),
    "roots_a_true": ("roots", {"params": {"n": 4, "p": 2.0, "a": True}}),
    # json.dumps writes Infinity, which plap reads back as inf
    "roots_mu_inf": ("roots", {"params": {"n": 4, "p": 2.0,
                                          "mu": math.inf}}),
    "shoot_grid_points_30": ("shoot", {**SHOT_PARAMS, "grid_points": 30}),
    "martin_t_1.5": ("martin", {**SHOT_PARAMS, "t": 1.5}),
    "blowup_window_20": ("blowup", {**SHOT_PARAMS, "window": 20}),
    "bochner_5_nodes": ("bochner", {"h_list": [0.25, 0.125]}),
    "grid_rect_too_wide": ("grid", {**SHOT_PARAMS, "rect": [0, 0, 1e300, 1],
                                    "h": 1e-10}),
    "grid_overflowing_data": ("grid", {"params": {"n": 3, "p": 1.2,
                                                  "lam": 500}, "h": 0.125}),
    "grid_underflowing_data": ("grid", {**SHOT_PARAMS,
                                        "rect": [-1000, 0, -999, 1],
                                        "xi": [1, 0], "h": 0.125}),
    "roots_gamma2_overflow": ("roots", {"params": {"n": 8, "p": 1.001,
                                                   "mu": -1e307}}),
    "blowup_gamma_80": ("blowup", {**SHOT_PARAMS, "gamma": 80}),
    "bochner_lam_1e6": ("bochner", {"lam": 1e6}),
    "bochner_lam_1e-300": ("bochner", {"lam": 1e-300}),
    "martin_n2000": ("martin", {"params": {"n": 2000, "p": 2.0, "lam": 1.0}}),
    "grid_p105_stall": ("grid", {"params": {"n": 4, "p": 1.05, "lam": 2.0},
                                 "h": 0.03125, "tol": 1e-9}),
    "grid_stencil_overflow": ("grid", {"params": {"n": 4, "p": 3.0,
                                                  "lam": 2.0},
                                       "rect": [200, 200, 201, 201],
                                       "h": 0.0625, "tol": 1e-9}),
}


def commands():
    """(name, plap arguments before --out, config or None) of each run."""
    for seed in SEEDS:
        yield f"all_seed{seed}", ["all", "--seed", str(seed)], None
    for sub, cfg in CONFIGS.items():
        yield sub, [sub], cfg
    for name, cfg in SHOOT_EXTRA.items():
        yield name, ["shoot"], cfg
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


def error_lines(stderr):
    """The lines of stderr's bytes that start with `plap:`."""
    return b"".join(line for line in stderr.splitlines(keepends=True)
                    if line.startswith(b"plap:"))


def run(tree, work, args, cfg):
    """Exit code, stdout, error lines and output tree of one plap run from
    `tree`."""
    work.mkdir(parents=True)
    argv = [sys.executable, "-m", "plap.cli", *args, "--out", str(work / "out")]
    if cfg is not None:
        (work / "config.json").write_text(json.dumps(cfg))
        argv += ["--config", str(work / "config.json")]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run(argv, cwd=work, env=env, capture_output=True)
    return (proc.returncode, proc.stdout, error_lines(proc.stderr),
            read_tree(work / "out"))


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
    """One line per differing exit code, stdout, error lines or output
    file."""
    (code_b, out_b, err_b, files_b), (code_h, out_h, err_h, files_h) = (
        base, head)
    diffs = []
    if code_b != code_h:
        diffs.append(f"{name}: exit code {code_b} -> {code_h}")
    if out_b != out_h:
        diffs.append(f"{name}: stdout differs")
    if err_b != err_h:
        diffs.append(f"{name}: error lines {err_b.decode(errors='replace')!r}"
                     f" -> {err_h.decode(errors='replace')!r}")
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
