import importlib.util
from pathlib import Path

import pytest


def _ab_bench():
    spec = importlib.util.spec_from_file_location(
        "ab_bench", Path(__file__).resolve().parents[1] / "scripts" / "ab_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(base, new, metric="run_s"):
    return {"w": {"base": [{metric: x} for x in base], "new": [{metric: x} for x in new]}}


@pytest.mark.parametrize("base, new, lower, verdict", [
    ([1.0] * 10, [1.2] * 10, True, "ok"),              # 20% worse, within a bound of 25%
    ([1.0] * 10, [1.3] * 10, True, "regressed"),
    ([1.0] * 10, [0.7] * 10, False, "regressed"),      # higher is better: 30% lower
    ([1.0] * 10, [0.5] * 10, True, "ok"),              # better by any amount
    ([0.5, 1.5] * 5, [2.0] * 10, True, "unresolved"),  # base quartiles 1.0 apart
])
def test_a_metric_is_judged_against_its_bound(base, new, lower, verdict):
    s = _ab_bench().summarize(_runs(base, new), {"run_s": lower}, {"run_s": 0.25})["w"]["run_s"]
    assert (s["bound"], s["verdict"]) == (0.25, verdict)


def test_a_metric_without_a_bound_gets_no_verdict():
    s = _ab_bench().summarize(_runs([1.0] * 10, [9.0] * 10, "dynamics.all_s"),
                              {"run_s": True}, {"run_s": 0.25})["w"]["dynamics.all_s"]
    assert "verdict" not in s and "bound" not in s and s["change"] == 8.0
