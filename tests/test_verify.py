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
