"""The benchmark's calls into plap still run and pass.

bench/ drives plap through names and call forms of its own: positional
arguments such as fit_decay_exponents(profile, alpha), counters read from
return values such as ShootResult.bisection_iters, and the module names
radial_ode.solve_ivp and grid_pde.splu that its tracer wraps.  One operation
of each workload, traced as `bench/run.py --trace 1` traces it, fails here
when plap drops or reshapes any of them.  The bench files are only loaded
and run, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    """bench/<name>.py as module bench_<name>, registered in sys.modules
    before it runs, since its dataclasses look their module up there."""
    mod_name = f"bench_{name}"
    if mod_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(mod_name,
                                                      BENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[mod_name] = module
        spec.loader.exec_module(module)
    return sys.modules[mod_name]


@pytest.mark.parametrize("workload", ["campaign", "far_field", "grid_fine"])
def test_traced_operation_passes(workload, tmp_path):
    workloads, spans, run = _load("workloads"), _load("spans"), _load("run")
    inp = workloads.make_inputs(workload, 1011, 1)[0]
    tracer = spans.Tracer()
    tracer.op = 0
    with tracer:
        res = workloads.run_op(workload, inp, tmp_path)
    assert res.error is None and res.passed
    if workload == "campaign":
        counts = spans.SpanTable(tracer).op_counts()
        assert run.campaign_self_check(counts) == []
