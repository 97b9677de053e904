"""Property-based tests (hypothesis) for atomic multicast invariants.

Hypothesis drives random message schedules (destinations, send times,
latency seeds) and asserts the Section 2.4 properties hold on every
generated execution: uniform agreement within groups, prefix order across
groups, integrity, and validity.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Environment

from tests.conftest import build_amcast_stack, tap_deliveries

GROUPS = {"g0": ["s00", "s01"], "g1": ["s10", "s11"]}

group_sets = st.sampled_from([("g0",), ("g1",), ("g0", "g1")])

schedule = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=10.0), group_sets),
    min_size=1, max_size=25,
)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(plan=schedule, seed=st.integers(min_value=0, max_value=10_000))
def test_amcast_invariants_hold_for_random_schedules(plan, seed):
    env = Environment()
    _net, directory, endpoints = build_amcast_stack(env, GROUPS, seed=seed)
    logs = tap_deliveries(endpoints)
    sent = []

    def sender(env):
        for delay, groups in sorted(plan, key=lambda p: p[0]):
            if env.now < delay:
                yield env.timeout(delay - env.now)
            uid = endpoints["s00"].multicast(list(groups), None)
            sent.append((uid, groups))

    env.process(sender(env))
    env.run(until=120_000)

    # Uniform agreement: members of a group deliver identical sequences.
    assert logs["s00"] == logs["s01"]
    assert logs["s10"] == logs["s11"]

    # Validity: everything sent is delivered at every destination group.
    for uid, groups in sent:
        for group in groups:
            assert uid in logs[directory.members(group)[0]]

    # Integrity: no duplicates, nothing delivered that was not sent.
    sent_uids = {uid for uid, _groups in sent}
    for log in (logs["s00"], logs["s10"]):
        assert len(log) == len(set(log))
        assert set(log) <= sent_uids

    # Messages delivered only where addressed.
    for uid, groups in sent:
        if "g1" not in groups:
            assert uid not in logs["s10"]
        if "g0" not in groups:
            assert uid not in logs["s00"]

    # Prefix order across the two groups.
    common = set(logs["s00"]) & set(logs["s10"])
    assert [u for u in logs["s00"] if u in common] == \
        [u for u in logs["s10"] if u in common]
