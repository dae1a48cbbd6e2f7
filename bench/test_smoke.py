"""Smoke test of the benchmark at its tiny sizes.

    python3 -m pytest bench/test_smoke.py -q

Checks that every metric named in BENCHMARK.json is reported for every
workload, that the span wrappers put every original back, and that the
traced run reports ``trace.uncovered_frac``.
"""

import json
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _result(capsys, workload: str, trace: int) -> dict:
    code = run.main(["--workload", workload, "--seconds", "0", "--trace", str(trace), "--tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_reported(capsys, workload):
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = _result(capsys, workload, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert 0.0 <= result["metrics"]["trace.uncovered_frac"]["value"] <= 1.0


def _bindings() -> dict:
    import numpy.linalg
    import scipy.linalg

    modules = [m for n, m in sys.modules.items() if n == "entkit" or n.startswith("entkit.")]
    state = {(id(m), k): v for m in modules + [numpy.linalg, scipy.linalg] for k, v in vars(m).items()}
    cli = sys.modules["entkit.cli"]
    state.update({("COMMANDS", k): v for k, v in cli.COMMANDS.items()})
    return state


def test_wrappers_restore_originals():
    run.import_entkit()
    import spans
    import workloads  # noqa: F401  (imports the entkit modules the workloads use)

    before = _bindings()
    patches = spans.install(spans.Recorder())
    during = _bindings()
    assert sum(during[k] is not v for k, v in before.items()) > 50
    patches.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
