import pytest

import stats


def test_percentile_interpolates_linearly():
    assert stats.percentile([4, 1, 3, 2], 50) == 2.5
    assert stats.percentile(list(range(11)), 90) == 9.0
    assert stats.median([7.0]) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


@pytest.mark.parametrize("n, tail", [
    (1, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9), (120000, 99.9),
])
def test_tail_needs_ten_samples_beyond_it(n, tail):
    assert stats.tail_percentile(n) == tail


def test_timing_report_states_sample_count():
    values = list(range(1, 201))
    assert stats.timing_report(values) == {
        "n": 200, "p50": 100.5, "tail_pct": 90.0, "tail": stats.percentile(values, 90)}
    assert stats.timing_report([3.0, 1.0, 2.0]) == {
        "n": 3, "p50": 2.0, "tail_pct": None, "tail": None}
