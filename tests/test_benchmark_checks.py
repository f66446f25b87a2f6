"""The benchmark's battery checks hold on the library as it stands.

perfbench/workloads.py checks every battery op exactly: spectral == direct,
b_m2 == 0, the two B-decomposition sums and the A-bound.  One cycle (all
four set sizes) at the default seed and at a held-out seed runs here, so a
change that breaks one of those checks fails in the test suite, not only
in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    # workloads.py imports only the stdlib and ffdist, so it loads on its own
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look the module up in sys.modules as they are made
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("seed", [0, 20261])
def test_battery_cycle_passes_its_checks(seed):
    battery = _load_workloads().Battery(seed)
    battery.setup()
    try:
        for i in range(battery.cycle):
            E = battery.make_input(i)
            assert len(E) == min(battery.sizes[i], battery.q ** battery.d)
            assert battery.check(E, battery.run_op(i, E)) == [], battery.kind(i)
    finally:
        battery.close()
