"""Percentile support rule, percentile arithmetic and failure accounting."""

import numpy as np
import pytest

import stats


@pytest.mark.parametrize(
    "n, pct",
    [(1000, 99.0), (1040, 99.0), (999, 98.0), (520, 98.0), (499, 95.0),
     (225, 95.0), (105, 90.0), (100, 90.0), (40, 75.0), (20, 50.0)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    assert stats.samples_beyond(n, pct) >= stats.MIN_BEYOND - 1e-9
    higher = [p for p in stats.TAIL_CANDIDATES if p > pct]
    assert all(stats.samples_beyond(n, p) < stats.MIN_BEYOND for p in higher)


def test_tail_percentile_refuses_too_few_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_percentile_matches_numpy_linear():
    rng = np.random.default_rng(0)
    values = rng.exponential(size=333).tolist()
    for pct in (0.0, 50.0, 90.0, 98.0, 99.0, 100.0):
        assert stats.percentile(values, pct) == pytest.approx(np.percentile(values, pct))


class TestFailureLedger:
    def test_fraction_counts_failed_against_attempted(self):
        ledger = stats.FailureLedger()
        for ok in (True, True, False, True):
            ledger.record(ok, "boom")
        assert (ledger.attempted, ledger.failed) == (4, 1)
        assert ledger.fail_fraction == 0.25
        assert not ledger.correct
        assert ledger.reasons == ["boom"]

    def test_absorb_adds_worker_counts(self):
        ledger = stats.FailureLedger()
        ledger.record(True)
        ledger.absorb(attempted=75, failed=0, reasons=[])
        assert (ledger.attempted, ledger.failed) == (76, 0)
        assert ledger.correct and ledger.fail_fraction == 0.0

    def test_absorb_rejects_more_failed_than_attempted(self):
        with pytest.raises(ValueError):
            stats.FailureLedger().absorb(attempted=1, failed=2, reasons=[])

    def test_nothing_attempted_is_not_correct(self):
        ledger = stats.FailureLedger()
        assert ledger.fail_fraction == 0.0
        assert not ledger.correct

    def test_reasons_are_bounded(self):
        ledger = stats.FailureLedger()
        for i in range(50):
            ledger.record(False, str(i))
        assert ledger.failed == 50
        assert len(ledger.reasons) == stats.FailureLedger.MAX_REASONS
        ledger.absorb(attempted=3, failed=3, reasons=["x", "y", "z"])
        assert len(ledger.reasons) == stats.FailureLedger.MAX_REASONS
