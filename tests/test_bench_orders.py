"""The benchmark's convergence gate must hold on more than the one seed CI traces.

perfbench/scenarios.py generates the convergence-d8 workload's oracle-free
d=8 pair file and judges both probes' orders with check_orders. This test
generates that file for seeds 1-5 and requires the gate to pass on each. It
only reads perfbench/.
"""

from pathlib import Path

import pytest

from quasiherm import cli
from quasiherm.verify import convergence_order

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def scenarios(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import scenarios
    return scenarios


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_convergence_workload_passes_the_order_gate(scenarios, tmp_path, seed):
    [entry] = scenarios.generate("convergence-d8", seed, str(tmp_path))
    s = cli.load_scenario(entry["path"])
    assert s.u_oracle is None   # the workload measures the oracle-free estimate
    assert scenarios.check_orders(convergence_order(s, "u"),
                                  convergence_order(s, "ur_corr")) == []
