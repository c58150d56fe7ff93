"""The pure functions of tools/same_outputs.py: ulp distances, the split of
CSV lines into text and numbers, and the per-file number comparison."""

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
