"""The pure functions of tools/same_outputs.py: ulp distances, the split of
CSV lines into text and numbers, the per-file number comparison and the
comparison of error lines."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    """tools/<name>.py as module `name`, registered in sys.modules, since
    the tools import each other by their bare names."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name]


_load("revision")
same_outputs = _load("same_outputs")
TINY = math.ulp(0.0)


class TestUlpGap:
    @pytest.mark.parametrize("a,b,gap", [
        (math.nan, math.nan, 0),
        (math.nan, 1.0, math.inf),
        (1.0, -math.nan, math.inf),
        (0.0, -0.0, 0),
        (1.0, 1.0, 0),
        (1.0, math.nextafter(1.0, 2.0), 1),
        (1.0, math.nextafter(1.0, 0.0), 1),
        (-2.5, math.nextafter(math.nextafter(-2.5, 0.0), 0.0), 2),
        # across zero: -tiny, -0.0 = 0.0, tiny
        (-TINY, TINY, 2),
        (-0.0, TINY, 1),
        (-1.0, 1.0, 2 * (1023 << 52)),
    ])
    def test_gap(self, a, b, gap):
        assert same_outputs.ulp_gap(a, b) == gap
        assert same_outputs.ulp_gap(b, a) == gap


class TestCsvFields:
    def test_json_comment_numbers_are_numbers(self):
        line = b'# {"alpha": 1.0, "n": 3, "shoot_param": -2.000000000004424}\n'
        text, numbers = same_outputs.csv_fields(line)
        assert numbers == [1.0, 3.0, -2.000000000004424]
        assert text.count(None) == 3
        assert "alpha" in text and "shoot_param" in text

    def test_comment_and_row(self):
        data = (b"# 01_indicial_roots/gamma1: target=0 measured=1e-13 "
                b"tol=1e-12\nname,1.5,True\n")
        text, numbers = same_outputs.csv_fields(data)
        assert numbers == [0.0, 1e-13, 1e-12, 1.5]
        assert "01_indicial_roots/gamma1" in text and "True" in text
        assert text.count("\n") == 2


class TestNumberGaps:
    def test_counts_numbers_that_differ(self):
        old = b'# {"shoot_param": -2.0, "r0": 1.0}\nr,u\n1.0,0.5\n'
        new = (b'# {"shoot_param": -2.0000000000000004, "r0": 1.0}\nr,u\n'
               b"1.0,0.5\n")
        assert same_outputs.number_gaps("p.csv", old, new) == (1, 4, 1)

    @pytest.mark.parametrize("new", [
        b"r,v\n1.0,0.5\n",         # a header changed
        b"r,u\n1.0,0.5,2.0\n",     # a column more
        b"r,u\n1.0,0.5\n2.0,0.25\n",  # a row more
    ])
    def test_layout_change_is_none(self, new):
        assert same_outputs.number_gaps("p.csv", b"r,u\n1.0,0.5\n", new) is None

    def test_other_files_are_none(self):
        assert same_outputs.number_gaps("p.json", b"1.0", b"2.0") is None
        assert same_outputs.number_gaps("p.csv", b"\xff", b"\xfe") is None


class TestErrorLines:
    # stderr of `plap grid` on the stencil-overflow config before that
    # error was named: numpy's warning names the tree's own path, main's
    # error line does not
    STDERR = (b"/tmp/a/src/plap/grid_pde.py:231: RuntimeWarning: overflow "
              b"encountered in multiply\n  c2 = k * pm2 * bn * bt / s2\n"
              b"plap: campaign 'grid' failed: Factor is exactly singular\n")

    def test_keeps_only_plap_lines(self):
        assert same_outputs.error_lines(self.STDERR) == (
            b"plap: campaign 'grid' failed: Factor is exactly singular\n")
        assert same_outputs.error_lines(b"") == b""

    def test_differences_compare_error_lines(self):
        base = (1, b"", same_outputs.error_lines(self.STDERR), {})
        other_path = self.STDERR.replace(b"/tmp/a/", b"/tmp/b/")
        same = (1, b"", same_outputs.error_lines(other_path), {})
        assert same_outputs.differences("g", base, same) == []
        named = (1, b"", b"plap: campaign 'grid' failed: Newton stencil is "
                         b"not finite\n", {})
        assert same_outputs.differences("g", base, named) == [
            "g: error lines \"plap: campaign 'grid' failed: Factor is exactly "
            "singular\\n\" -> \"plap: campaign 'grid' failed: Newton "
            "stencil is not finite\\n\""]


bench_pairs = _load("bench_pairs")


def _metric(parent, change, unit="ref"):
    """bench_pairs' record of one metric over the pairs
    (parent[i], change[i])."""
    def result(value):
        return ({"failed": 0, "correct": True,
                 "metrics": {"m": {"value": value}}}, [], None)
    runs = {"parent": [result(v) for v in parent],
            "change": [result(v) for v in change]}
    seeds = list(range(len(parent)))
    return bench_pairs.workload_entry(seeds, runs, {"m": unit})["metrics"]["m"]


PARENT = [20.0, 20.2, 19.8, 20.4, 19.6, 20.1, 19.9, 20.3, 19.7, 20.0]


class TestVerdict:
    def word(self, change, better="lower", bound=0.25, parent=PARENT):
        line = bench_pairs.verdict("campaign", "m", _metric(parent, change),
                                   better, bound)
        assert line.startswith("campaign m: ")
        return line[len("campaign m: "):].split(" (")[0]

    def test_gain_needs_nine_of_ten_pairs_and_the_iqr(self):
        # parent IQR is 0.375: a drop of 1.8 in every pair is a gain
        assert self.word([v - 1.8 for v in PARENT]) == "gain shown"
        # lower in 8 of 10 pairs only
        assert self.word([v - 1.8 for v in PARENT[:8]] + PARENT[8:]) \
            == "no gain shown, within bound"
        # lower in every pair, but by less than the parent IQR
        assert self.word([v - 0.2 for v in PARENT]) \
            == "no gain shown, within bound"

    def test_ties_count_for_neither_side(self):
        # 9 pairs lower, 1 tie: 9 of 10
        assert self.word([v - 1.8 for v in PARENT[:9]] + PARENT[9:]) \
            == "gain shown"

    def test_regression_is_beyond_the_bound(self):
        assert self.word([v * 1.3 for v in PARENT]) == "regressed"
        assert self.word([v * 1.2 for v in PARENT]) \
            == "no gain shown, within bound"

    def test_direction_follows_better(self):
        # op_count-like: higher is better
        assert self.word([v + 1.8 for v in PARENT], better="higher") \
            == "gain shown"
        assert self.word([v * 0.9 for v in PARENT], better="higher",
                         bound=0.05) == "regressed"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [10.0, 30.0, 12.0, 28.0, 20.0, 14.0, 26.0, 16.0, 24.0, 20.0]
        assert self.word(wide, bound=0.05) == "unresolved"
        # unless every change run reads better than every parent run; a
        # median gap of 10.1 within the parent IQR of 20 shows no gain
        split = [10.0] * 5 + [30.0] * 5
        assert self.word([9.9] * 10, parent=split, bound=0.05) \
            == "no gain shown, within bound"
        assert self.word([10.0] + [9.9] * 9, parent=split, bound=0.05) \
            == "unresolved"


class TestTracedEntry:
    def test_runs_and_median_per_metric(self):
        def result(us, calls, correct=True):
            return {"correct": correct, "failed": 0 if correct else 1,
                    "metrics": {"us_per_call": {"value": us, "unit": "us"},
                                "calls": {"value": calls, "unit": "count"}}}
        entry = bench_pairs.traced_entry([result(11.45, 11000.0),
                                          result(14.21, 11000.0, False),
                                          result(12.0, 11000.0)])
        assert entry == {
            "correct": [True, False, True], "failed": [0, 1, 0],
            "us_per_call": {"runs": [11.45, 14.21, 12.0], "median": 12.0},
            "calls": {"runs": [11000.0] * 3, "median": 11000.0}}
