"""Tests for the overload-burst fault vocabulary (``fuzz --overload``).

The overload variant arms every fuzzed cluster's QoS machinery and adds
open-loop read-only surges to the schedule: the admission controllers
must shed the surge while the foreground workload still completes under
whatever other faults the schedule drew.
"""

from repro.canonical import canonical_json
from repro.fuzz.generate import generate_schedule
from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule, normalize_schedule


def _overload_events(schedule):
    return [e for e in schedule.events if e["kind"] == "overload"]


class TestGeneration:
    SCAN = [generate_schedule(0, i, overload=True) for i in range(20)]

    def test_overload_flag_arms_qos_and_adds_bursts(self):
        assert all(s.qos for s in self.SCAN)
        assert any(_overload_events(s) for s in self.SCAN)

    def test_default_generation_stays_plain(self):
        for index in range(20):
            schedule = generate_schedule(0, index)
            assert not schedule.qos
            assert not _overload_events(schedule)

    def test_burst_shape(self):
        for schedule in self.SCAN:
            for event in _overload_events(schedule):
                assert 0 < event["at"] < event["end"]
                assert event["rate_per_s"] >= 2_000.0
                assert event["clients"] >= 4

    def test_deterministic(self):
        first = generate_schedule(5, 3, overload=True)
        second = generate_schedule(5, 3, overload=True)
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_generated_overload_schedules_are_normal_forms(self):
        for schedule in self.SCAN:
            assert normalize_schedule(schedule) == schedule


class TestScheduleFormat:
    def test_qos_flag_round_trips(self):
        schedule = generate_schedule(1, 0, overload=True)
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone.qos and clone == schedule

    def test_old_schedules_default_to_qos_off(self):
        schedule = generate_schedule(1, 0)
        data = schedule.to_dict()
        del data["qos"]  # pre-QoS artifact on disk
        assert not FaultSchedule.from_dict(data).qos

    def test_describe_names_bursts_and_qos(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="ssmr", horizon_ms=300.0, qos=True,
            events=({"kind": "overload", "at": 50.0, "end": 120.0,
                     "rate_per_s": 3000.0, "clients": 6},))
        text = schedule.describe()
        assert "burst(3000/sx6[50,120))" in text
        assert "+qos" in text

    def test_normalize_clamps_burst_windows(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="ssmr", horizon_ms=100.0, qos=True,
            events=({"kind": "overload", "at": 50.0, "end": 900.0,
                     "rate_per_s": 3000.0, "clients": 6},
                    {"kind": "overload", "at": 200.0, "end": 300.0,
                     "rate_per_s": 3000.0, "clients": 6}))
        normal = normalize_schedule(schedule)
        bursts = _overload_events(normal)
        assert len(bursts) == 1  # fully-past-horizon burst dropped
        assert bursts[0]["end"] == 100.0


class TestRunner:
    def test_burst_schedule_sheds_and_completes(self):
        schedule = FaultSchedule(
            seed=7, index=0, scheme="ssmr", horizon_ms=400.0, qos=True,
            events=({"kind": "overload", "at": 20.0, "end": 120.0,
                     "rate_per_s": 5000.0, "clients": 8},))
        result = run_schedule(schedule)
        assert result.ok, result.violations
        assert result.ops_completed == result.ops_expected
        assert result.linearizability == "linearizable"

    def test_burst_composes_with_crash(self):
        schedule = FaultSchedule(
            seed=8, index=0, scheme="dssmr", horizon_ms=500.0, qos=True,
            events=({"kind": "overload", "at": 20.0, "end": 100.0,
                     "rate_per_s": 4000.0, "clients": 6},
                    {"kind": "crash", "at": 60.0, "node": "p0s1",
                     "mode": "restart", "duration": 80.0}))
        result = run_schedule(schedule)
        assert result.ok, result.violations
        assert result.ops_completed == result.ops_expected
