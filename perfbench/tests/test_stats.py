import pytest

from stats import node_auc, samples_for_percentile, tail_percentile


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 201))  # 200 samples
    percentile, value = tail_percentile(values)
    assert percentile == pytest.approx(95.0)
    assert value == 190
    assert sum(v > value for v in values) == 10


def test_tail_percentile_rises_with_more_samples():
    percentile, value = tail_percentile(range(1000))
    assert percentile == pytest.approx(99.0)
    assert value == 989


def test_tail_percentile_ignores_input_order():
    assert tail_percentile([5, 1, 4, 2, 3] * 4) == tail_percentile(
        sorted([5, 1, 4, 2, 3] * 4))


def test_tail_percentile_needs_more_than_ten_samples():
    assert tail_percentile(range(10)) is None
    percentile, value = tail_percentile(range(11))
    assert value == 0
    assert percentile == pytest.approx(100.0 / 11)


def test_samples_for_percentile():
    assert samples_for_percentile(95.0) == 200
    assert samples_for_percentile(99.0) == 1000
    assert tail_percentile(range(199))[0] < 95.0


def test_node_auc():
    assert node_auc([3, 2, 1, 0], [True, True, False, False]) == 1.0
    assert node_auc([0, 1, 2, 3], [True, True, False, False]) == 0.0
    assert node_auc([1, 1, 1, 1], [True, False, True, False]) == 0.5
    with pytest.raises(ValueError):
        node_auc([1, 2], [True, True])
