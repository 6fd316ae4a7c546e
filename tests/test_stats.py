import numpy as np
import pytest

from pettylab.stats import Z_95, EstimateWithCI, classify, summarize


def _interval(low: float, high: float) -> EstimateWithCI:
    return EstimateWithCI((low + high) / 2.0, (high - low) / (2.0 * Z_95), low, high, 10)


@pytest.mark.parametrize("direction", ["le", "ge"])
def test_classify_reads_the_intervals_in_the_claimed_order(direction):
    small, large, overlapping = _interval(0.0, 1.0), _interval(2.0, 3.0), _interval(0.5, 2.5)
    lo, hi = (small, large) if direction == "le" else (large, small)
    assert classify(lo, hi, direction) == "consistent"
    assert classify(hi, lo, direction) == "violated"
    assert classify(small, overlapping, direction) == "inconclusive"
    assert classify(overlapping, large, direction) == "inconclusive"
    # intervals that touch do not separate
    assert classify(small, _interval(1.0, 2.0), direction) == "inconclusive"


@pytest.mark.parametrize("direction", ["lt", "eq", "", None])
def test_classify_rejects_any_other_direction(direction):
    with pytest.raises(ValueError, match="direction"):
        classify(_interval(0.0, 1.0), _interval(2.0, 3.0), direction)


def test_summarize_one_trial_has_no_spread_and_zero_trials_are_refused():
    one = summarize([2.5])
    assert one == EstimateWithCI(2.5, 0.0, 2.5, 2.5, 1)
    with pytest.raises(ValueError, match="zero trials"):
        summarize([])


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 129, 20000])
def test_summarize_takes_the_bits_of_np_mean_and_np_std(n):
    # heavy tails and mixed scales, so that another order of the sums would
    # show in the last bits; every other value of a longer array, strided
    gen = np.random.default_rng(n)
    for values in (gen.standard_cauchy(n) * 1e3, gen.normal(size=2 * n)[::2] + 1e6):
        got = summarize(values)
        mean = float(np.mean(values))
        stderr = float(np.std(values, ddof=1)) / np.sqrt(n) if n > 1 else 0.0
        assert got == EstimateWithCI(mean, stderr, mean - Z_95 * stderr, mean + Z_95 * stderr, n)
        assert np.array([got.mean, got.stderr]).tobytes() == np.array([mean, stderr]).tobytes()
