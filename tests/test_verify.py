import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from entkit import verify
from entkit.classify import Entangling, Product, classify_unitary
from entkit.fixtures import cnot
from entkit.linalg import DEFAULT_SEED
from entkit.serialize import canonical_json
from entkit.verify import SuiteResult, _Tally

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _python(code: str) -> str:
    """Standard output of a fresh interpreter running code with entkit from src/."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    return result.stdout


def _run_all_on(monkeypatch, cpus: int, seed: int) -> str:
    """canonical_json of run_all(seed) as if cpus CPUs were available; no
    worker is left afterwards."""
    monkeypatch.setattr(verify, "_available_cpus", lambda: cpus)
    text = canonical_json(verify.run_all(seed))
    assert multiprocessing.active_children() == []
    return text


class TestTally:
    def test_defaults_reported_when_nothing_recorded(self):
        result = _Tally("s", "claim", a=0.0, b=0.0).result()
        assert result == SuiteResult("s", "claim", True, 0, 0, {"a": 0.0, "b": 0.0})

    def test_max_merge_is_order_independent(self):
        values = [0.3, 1e-12, 2.5, 0.7]
        worsts = []
        for order in (values, values[::-1], sorted(values)):
            tally = _Tally("s", "claim", a=0.0)
            for v in order:
                tally.record(a=v)
            worsts.append(tally.result().worst)
        assert worsts == [{"a": 2.5}] * 3

    def test_failures_counted_and_passed_iff_none(self):
        tally = _Tally("s", "claim", a=0.0)
        tally.check(True, a=1.0)
        assert tally.result().passed
        tally.check(False)
        tally.check(False, a=0.5)
        tally.check(True)
        result = tally.result()
        assert (result.checks, result.failures, result.passed) == (4, 2, False)
        assert result.worst == {"a": 1.0}


class TestClassifierOracleSuite:
    """The suite's comparison is live: one wrong verdict fails it."""

    @pytest.mark.parametrize("wrong", ["generic-as-product", "product-as-entangling"])
    def test_one_wrong_verdict_is_a_disagreement(self, monkeypatch, wrong):
        entangling = classify_unitary(cnot(), 2, 2)
        flipped = []

        def classify_once_wrong(u, d1, d2, tol, seed):
            form = classify_unitary(u, d1, d2, tol, seed)
            target = Entangling if wrong == "generic-as-product" else Product
            if flipped or not isinstance(form, target):
                return form
            flipped.append(True)
            if target is Entangling:
                return Product(np.eye(d1), np.eye(d2), 0.0)
            return entangling

        monkeypatch.setattr(verify, "classify_unitary", classify_once_wrong)
        result = verify.suite_classifier_oracle()
        assert flipped
        assert result.worst["disagreements"] == 1.0
        assert (result.failures, result.passed) == (1, False)


class TestRunAllWorkers:
    """run_all's forked workers give the report of an in-process run."""

    @pytest.mark.parametrize("seed", [DEFAULT_SEED, 7, 12345])
    def test_report_bytes_match_in_process_run(self, monkeypatch, pooled_report, seed):
        assert pooled_report(seed) == _run_all_on(monkeypatch, 1, seed)

    def test_raising_suite_fails_alike_on_both_paths(self, monkeypatch):
        def suite_broken(seed, tol):
            raise ValueError(f"no corpus for seed {seed}")

        monkeypatch.setattr(verify, "ALL_SUITES", (verify.suite_swap_obstruction, suite_broken))
        pooled = _run_all_on(monkeypatch, 2, 7)
        assert pooled == _run_all_on(monkeypatch, 1, 7)
        report = json.loads(pooled)
        assert report["suites"][1] == SuiteResult(
            "broken", "", False, 0, 1, {"error": "ValueError: no corpus for seed 7"}
        ).to_json()
        assert report["suites"][0]["passed"] and not report["passed"]

    def test_dead_worker_raises_instead_of_hanging(self):
        out = _python("""
            import multiprocessing, os
            from concurrent.futures.process import BrokenProcessPool
            from entkit import verify

            def suite_exit(seed, tol):
                os._exit(3)

            verify.ALL_SUITES = (verify.suite_swap_obstruction, suite_exit)
            verify._available_cpus = lambda: 2
            try:
                verify.run_all(7)
            except BrokenProcessPool:
                print("raised", multiprocessing.active_children())
        """)
        assert out == "raised []\n"


def test_import_loads_no_process_pool():
    """run_all imports the pool lazily, so `import entkit` stays as cheap as before."""
    out = _python("""
        import entkit, sys
        print([m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules])
    """)
    assert out == "[]\n"
