"""Tests for the storage fault vocabulary (``fuzz --disk``).

The disk variant arms every fuzzed cluster's durable-storage layer and
adds torn writes, bit rot, slow-disk windows and whole-cluster power
loss to the schedule: the cold-start recovery ladder must bring the
cluster back — from local disk alone after a power cut — with the
workload still linearizable.
"""

from repro.canonical import canonical_json
from repro.fuzz.generate import generate_schedule
from repro.fuzz.runner import run_schedule
from repro.fuzz.schedule import FaultSchedule, normalize_schedule

DISK_KINDS = ("disk_torn_write", "disk_bitrot", "disk_slow", "power_loss")


def _disk_events(schedule):
    return [e for e in schedule.events if e["kind"] in DISK_KINDS]


class TestGeneration:
    SCAN = [generate_schedule(0, i, disk=True) for i in range(30)]

    def test_disk_flag_arms_durability(self):
        assert all(s.durability for s in self.SCAN)

    def test_disk_events_are_drawn(self):
        kinds = {e["kind"] for s in self.SCAN for e in _disk_events(s)}
        assert len(kinds) >= 3       # variety across 30 schedules

    def test_default_generation_stays_plain(self):
        for index in range(20):
            schedule = generate_schedule(0, index)
            assert not schedule.durability
            assert not _disk_events(schedule)

    def test_power_loss_rides_alone(self):
        """A whole-cluster power cut suppresses crash/reconfig/
        supervisor events: the power cycle IS the crash story."""
        powered = [s for s in self.SCAN
                   if any(e["kind"] == "power_loss" for e in s.events)]
        assert powered, "scan must draw at least one power_loss"
        for schedule in powered:
            kinds = {e["kind"] for e in schedule.events}
            assert not kinds & {"crash", "join", "leave"}
            assert not schedule.supervisor

    def test_deterministic(self):
        first = generate_schedule(5, 3, disk=True)
        second = generate_schedule(5, 3, disk=True)
        assert canonical_json(first.to_dict()) == canonical_json(second.to_dict())

    def test_generated_disk_schedules_are_normal_forms(self):
        for schedule in self.SCAN:
            assert normalize_schedule(schedule) == schedule


class TestScheduleFormat:
    def test_durability_flag_round_trips(self):
        schedule = generate_schedule(1, 0, disk=True)
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone.durability and clone == schedule

    def test_old_schedules_default_to_durability_off(self):
        schedule = generate_schedule(1, 0)
        data = schedule.to_dict()
        del data["durability"]   # pre-durability artifact on disk
        assert not FaultSchedule.from_dict(data).durability

    def test_describe_names_disk_faults(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="dssmr", horizon_ms=300.0,
            durability=True,
            events=({"kind": "disk_torn_write", "at": 40.0, "node": "p0s1"},
                    {"kind": "disk_bitrot", "at": 60.0, "node": "p1s0"},
                    {"kind": "disk_slow", "at": 80.0, "end": 160.0,
                     "node": "p0s0", "factor": 8.0},
                    {"kind": "power_loss", "at": 100.0, "duration": 60.0}))
        text = schedule.describe()
        assert "torn(p0s1@40)" in text
        assert "bitrot(p1s0@60)" in text
        assert "slowdisk" in text
        assert "power(100+60)" in text
        assert "+durability" in text

    def test_normalize_clamps_power_loss_like_crash(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="dssmr", horizon_ms=200.0,
            durability=True,
            events=({"kind": "power_loss", "at": 100.0,
                     "duration": 5_000.0},))
        normal = normalize_schedule(schedule)
        event = normal.events[0]
        # Power must come back with margin to heal before the horizon.
        assert event["at"] + event["duration"] < 200.0

    def test_normalize_drops_instant_faults_past_horizon(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="dssmr", horizon_ms=100.0,
            durability=True,
            events=({"kind": "disk_bitrot", "at": 400.0, "node": "p0s1"},
                    {"kind": "disk_torn_write", "at": 50.0,
                     "node": "p0s1"}))
        normal = normalize_schedule(schedule)
        assert [e["kind"] for e in normal.events] == ["disk_torn_write"]


class TestRunner:
    def test_disk_faults_without_durability_are_skipped(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="dssmr",
            events=({"kind": "disk_bitrot", "at": 40.0, "node": "p0s1"},
                    {"kind": "power_loss", "at": 80.0, "duration": 50.0}))
        run = run_schedule(schedule)
        assert run.ok, run.violations
        assert sum("durability is not armed" in s
                   for s in run.events_skipped) == 2

    def test_power_loss_with_supervisor_is_skipped(self):
        schedule = FaultSchedule(
            seed=0, index=0, scheme="dssmr", supervisor=True,
            durability=True,
            events=({"kind": "power_loss", "at": 80.0, "duration": 50.0},))
        run = run_schedule(schedule)
        assert any("mutually exclusive" in s for s in run.events_skipped)

    def test_power_loss_run_recovers_and_stays_linearizable(self):
        schedule = FaultSchedule(
            seed=2, index=0, scheme="dssmr", durability=True,
            events=({"kind": "power_loss", "at": 90.0, "duration": 60.0},))
        run = run_schedule(schedule)
        assert run.ok, run.violations
        assert run.ops_completed == run.ops_expected
        assert run.linearizability == "linearizable"

    def test_torn_write_and_bitrot_run_clean(self):
        schedule = FaultSchedule(
            seed=4, index=0, scheme="dssmr", durability=True,
            events=({"kind": "disk_torn_write", "at": 60.0,
                     "node": "p0s1"},
                    {"kind": "disk_bitrot", "at": 80.0, "node": "p1s1"},
                    {"kind": "disk_slow", "at": 40.0, "end": 120.0,
                     "node": "p0s0", "factor": 10.0}))
        run = run_schedule(schedule)
        assert run.ok, run.violations

    def test_disk_runs_are_deterministic(self):
        schedule = generate_schedule(3, 7, disk=True)
        first = run_schedule(schedule).to_dict()
        second = run_schedule(schedule).to_dict()
        assert first == second
