import numpy as np
import pytest

from sampling import InsufficientSamples, mix_weights, weighted_mean, weighted_percentile


def test_uniform_weights_give_the_plain_percentile():
    values = list(range(1, 201))
    weights = np.full(200, 1 / 200)
    assert weighted_percentile(values, weights, 50) == 100
    assert weighted_percentile(values, weights, 95) == 190


@pytest.mark.parametrize(
    "enough, too_few, pct", [(22, 18, 50), (220, 180, 95), (1100, 900, 99)]
)
def test_ten_samples_beyond_each_percentile(enough, too_few, pct):
    weighted_percentile(list(range(enough)), np.full(enough, 1 / enough), pct)
    with pytest.raises(InsufficientSamples):
        weighted_percentile(list(range(too_few)), np.full(too_few, 1 / too_few), pct)


def test_mix_weights_undo_the_draw():
    # Type "a" is 90 % of the spec mix but was drawn as often as "b".
    names = ["a"] * 50 + ["b"] * 50
    values = [1.0] * 50 + [3.0] * 50
    weights = mix_weights(names, {"a": 0.9, "b": 0.1})
    assert weights.sum() == pytest.approx(1.0)
    assert weighted_mean(values, weights) == pytest.approx(1.2)


def test_mix_weights_renormalize_over_present_types():
    weights = mix_weights(["a", "a"], {"a": 0.25, "b": 0.75})
    assert list(weights) == [0.5, 0.5]


def test_tail_weighted_by_the_mix_with_ten_beyond():
    # 30 slow samples of a type with 10 % share: p94.5 is the 14th of them.
    names = ["fast"] * 170 + ["slow"] * 30
    values = [1.0] * 170 + [10.0 + i for i in range(30)]
    weights = mix_weights(names, {"fast": 0.9, "slow": 0.1})
    assert weighted_percentile(values, weights, 94.5) == 23.0
    with pytest.raises(InsufficientSamples):
        weighted_percentile(values, weights, 99)
