import numpy as np
import pytest

from entkit import verify
from entkit.classify import Entangling, Product, classify_unitary
from entkit.fixtures import cnot
from entkit.verify import SuiteResult, _Tally


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
