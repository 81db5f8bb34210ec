"""Tests for processes and restartable timers."""

from repro.sim.core import Simulator
from repro.sim.process import Process, Timer


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        process = Process(sim, "p")
        seen = []
        timer = Timer(process, lambda: seen.append(sim.now))
        timer.start(25.0)
        sim.run()
        assert seen == [25.0]

    def test_stop_prevents_firing(self):
        sim = Simulator()
        process = Process(sim, "p")
        seen = []
        timer = Timer(process, lambda: seen.append(1))
        timer.start(25.0)
        timer.stop()
        sim.run()
        assert seen == []

    def test_restart_extends_deadline(self):
        sim = Simulator()
        process = Process(sim, "p")
        seen = []
        timer = Timer(process, lambda: seen.append(sim.now))
        timer.start(10.0)
        sim.schedule(5.0, lambda: timer.start(10.0))
        sim.run()
        assert seen == [15.0]

    def test_armed_and_deadline(self):
        sim = Simulator()
        process = Process(sim, "p")
        timer = Timer(process, lambda: None)
        assert not timer.armed
        assert timer.deadline is None
        timer.start(10.0)
        assert timer.armed
        assert timer.deadline == 10.0

    def test_crash_disarms_timers(self):
        sim = Simulator()
        process = Process(sim, "p")
        seen = []
        timer = Timer(process, lambda: seen.append(1))
        timer.start(10.0)
        process.crash()
        sim.run()
        assert seen == []
        assert not timer.armed

    def test_timer_does_not_fire_while_crashed(self):
        sim = Simulator()
        process = Process(sim, "p")
        seen = []
        timer = Timer(process, lambda: seen.append(1))
        timer.start(10.0)
        # Crash after arming but before firing, without going through
        # process.crash() timer cleanup (simulates a race).
        sim.schedule(5.0, lambda: setattr(process, "crashed", True))
        sim.run()
        assert seen == []


class TestProcess:
    def test_recover_clears_crashed_flag(self):
        sim = Simulator()
        process = Process(sim, "p")
        process.crash()
        assert process.crashed
        process.recover()
        assert not process.crashed
