import pytest

from hostprobe import HostNormalizer, HostProbe, normalization_factor


def test_factor_is_reference_over_median():
    assert normalization_factor([0.002, 0.001, 0.003], ref_s=0.001) == pytest.approx(0.5)
    assert normalization_factor([0.001, 0.001, 0.004, 0.0005], ref_s=0.001) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalization_factor([])


def test_a_host_twice_as_slow_reads_the_same_after_normalization():
    fast = HostNormalizer(probe=lambda: 0.001, ref_s=0.001)
    slow = HostNormalizer(probe=lambda: 0.002, ref_s=0.001)
    fast.warm()
    slow.warm()
    assert 0.010 * fast.factor == pytest.approx(0.020 * slow.factor)


def test_factor_follows_the_median_of_the_recent_window():
    probes = iter([0.001] * 3 + [0.004] * 3)
    normalizer = HostNormalizer(probe=lambda: next(probes), ref_s=0.002, window=3)
    normalizer.warm(3)
    assert normalizer.factor == pytest.approx(2.0)
    normalizer.probe()
    normalizer.probe()
    assert normalizer.factor == pytest.approx(0.5)  # two of the last three are slow


def test_probe_runs_at_the_cadence_of_measured_work():
    calls = []
    normalizer = HostNormalizer(probe=lambda: calls.append(1) or 0.001, cadence_s=0.05)
    for _ in range(9):
        normalizer.account(0.01)
    assert len(calls) == 1
    normalizer.account(0.01)
    assert len(calls) == 2


def test_probe_refuses_to_run_while_a_query_is_in_flight():
    normalizer = HostNormalizer(probe=lambda: 0.001, cadence_s=0.01)
    normalizer.in_flight = True
    with pytest.raises(RuntimeError):
        normalizer.account(0.02)


def test_real_probe_takes_positive_time():
    assert HostProbe().run() > 0
