"""The speedometer's arithmetic and its handling of the timer signal."""

import signal
import time

import pytest

from perfbench import speed
from perfbench.speed import Speedometer


def test_reference_seconds_scale_own_time_by_mean_speed():
    meter = Speedometer(reference=100e-6)
    meter.wall_s = 10.5
    meter.probe_s = 0.5
    meter.samples = [100e-6, 200e-6]  # full speed, then half speed
    assert meter.speed == pytest.approx(0.75)
    assert meter.reference_s == pytest.approx(10.0 * 0.75)


def test_probes_run_during_the_phase_and_are_subtracted():
    previous = signal.getsignal(signal.SIGALRM)
    with Speedometer(interval=0.005) as meter:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(meter.samples) >= 5
    assert 0 < meter.probe_s < meter.wall_s
    assert meter.reference_s == pytest.approx(
        (meter.wall_s - meter.probe_s) * meter.speed)


def test_a_phase_shorter_than_one_interval_still_gets_a_sample():
    with Speedometer(interval=10.0) as meter:
        pass
    assert len(meter.samples) == 1 and meter.probe_s == 0.0
    assert meter.reference_s >= 0.0


def test_a_slower_probe_reads_as_less_reference_time(monkeypatch):
    readings = iter([0.0, 200e-6])  # one probe of 200 µs on the fake timer
    meter = Speedometer(interval=10.0, reference=100e-6,
                        timer=lambda: next(readings))
    monkeypatch.setattr(speed, "clock", iter([1.0, 3.0]).__next__)
    with meter:
        pass
    assert meter.wall_s == 2.0
    assert meter.speed == pytest.approx(0.5)
    assert meter.reference_s == pytest.approx(1.0)
