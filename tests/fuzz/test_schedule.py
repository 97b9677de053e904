"""Tests for the schedule model: serialisation, digests, normalisation."""

import pytest

from repro.canonical import canonical_json
from repro.fuzz.schedule import (HEAL_MARGIN_MS, FaultSchedule,
                                 normalize_schedule)


def make_schedule(**overrides):
    fields = dict(
        seed=1, index=0, scheme="dssmr",
        events=(
            {"kind": "drop", "at": 0.0, "end": 300.0, "fraction": 0.01},
            {"kind": "crash", "at": 40.0, "node": "p0s1",
             "mode": "restart", "duration": 80.0},
        ),
        horizon_ms=300.0)
    fields.update(overrides)
    return FaultSchedule(**fields)


class TestSerialisation:
    def test_round_trip(self):
        schedule = make_schedule()
        clone = FaultSchedule.from_dict(schedule.to_dict())
        assert clone == schedule
        assert canonical_json(clone.to_dict()) == canonical_json(schedule.to_dict())

    def test_digest_stable_and_sensitive(self):
        schedule = make_schedule()
        assert schedule.digest() == make_schedule().digest()
        assert schedule.digest() != make_schedule(seed=2).digest()
        assert len(schedule.digest()) == 10

    def test_inject_bug_survives_round_trip(self):
        schedule = make_schedule(inject_bug="no_dedup")
        assert FaultSchedule.from_dict(
            schedule.to_dict()).inject_bug == "no_dedup"

    def test_describe_mentions_every_event(self):
        text = make_schedule().describe()
        assert "drop" in text and "restart(p0s1@40+80)" in text
        assert FaultSchedule(seed=0, index=0,
                             scheme="smr").describe() == "no-faults"


class TestNormalisation:
    def test_idempotent(self):
        once = normalize_schedule(make_schedule())
        assert normalize_schedule(once) == once

    def test_clips_message_windows_to_horizon(self):
        schedule = make_schedule(events=(
            {"kind": "drop", "at": 0.0, "end": 900.0, "fraction": 0.01},
            {"kind": "delay", "at": 350.0, "end": 400.0,
             "fraction": 0.1, "spike_ms": 5.0},
        ))
        events = normalize_schedule(schedule).events
        # The in-horizon window is clipped; the out-of-horizon one dies.
        assert len(events) == 1
        assert events[0]["end"] == 300.0

    def test_clamps_crash_duration_before_heal(self):
        schedule = make_schedule(events=(
            {"kind": "crash", "at": 100.0, "node": "p0s1",
             "mode": "restart", "duration": 500.0},
        ))
        crash = normalize_schedule(schedule).events[0]
        assert crash["at"] + crash["duration"] <= 300.0 - HEAL_MARGIN_MS

    def test_drops_crash_too_close_to_horizon(self):
        schedule = make_schedule(events=(
            {"kind": "crash", "at": 295.0, "node": "p0s1",
             "mode": "restart", "duration": 50.0},
        ))
        assert normalize_schedule(schedule).events == ()

    def test_drops_reconfig_past_horizon(self):
        schedule = make_schedule(events=(
            {"kind": "join", "at": 50.0, "partition": "p2"},
            {"kind": "leave", "at": 320.0, "partition": "p2"},
        ))
        events = normalize_schedule(schedule).events
        assert [e["kind"] for e in events] == ["join"]

    def test_sorts_events_deterministically(self):
        forward = make_schedule()
        backward = make_schedule(events=tuple(reversed(forward.events)))
        assert (canonical_json(normalize_schedule(forward).to_dict())
                == canonical_json(normalize_schedule(backward).to_dict()))

    def test_unknown_kind_rejected(self):
        schedule = make_schedule(events=({"kind": "meteor", "at": 1.0},))
        with pytest.raises(ValueError):
            normalize_schedule(schedule)
