"""Unit tests for the fault-injection layer itself: plan validation,
sampling determinism, budget caps, node faults, ledger accounting."""

from __future__ import annotations

import pytest

from repro import FaultInjector, FaultPlan, FaultRule, NodeFault
from repro.errors import ReproError
from repro.sim.faults import PROTOCOL_KINDS
from repro.stats import StatsRegistry


def make_injector(plan, seed=7):
    return FaultInjector(plan, seed, StatsRegistry())


class TestValidation:
    def test_probability_out_of_range(self):
        with pytest.raises(ReproError, match="not in"):
            FaultRule(drop=1.5)
        with pytest.raises(ReproError, match="not in"):
            FaultRule(duplicate=-0.1)

    def test_negative_drop_count(self):
        with pytest.raises(ReproError, match="drop_count"):
            FaultRule(drop_count=-1)

    def test_bad_delay_range(self):
        with pytest.raises(ReproError, match="delay_us"):
            FaultRule(delay_us=(50.0, 10.0))

    def test_node_fault_validation(self):
        with pytest.raises(ReproError, match="slow_factor"):
            NodeFault(slow_factor=0.5)
        with pytest.raises(ReproError, match="non-negative"):
            NodeFault(stall_at_us=-1.0)


class TestPlan:
    def test_protocol_chaos_covers_protocol_kinds(self):
        plan = FaultPlan.protocol_chaos(drop=0.1)
        assert set(plan.by_kind) == set(PROTOCOL_KINDS)
        assert all(r.drop == 0.1 for r in plan.by_kind.values())
        assert not plan.empty

    def test_empty_plan(self):
        assert FaultPlan().empty
        assert not FaultPlan(node_faults={0: NodeFault(slow_factor=2.0)}).empty

    def test_seed_inheritance(self):
        # plan.seed None -> the machine's workload seed drives faults
        inj = make_injector(FaultPlan(), seed=99)
        assert inj.seed == 99
        inj2 = make_injector(FaultPlan(seed=5), seed=99)
        assert inj2.seed == 5


class TestSampling:
    def test_deterministic_replay(self):
        """Two injectors with identical (plan, seed) draw identical
        fault sequences — the whole point of seeded fuzzing."""
        plan = FaultPlan.protocol_chaos(seed=3, drop=0.3, duplicate=0.3,
                                        delay=0.3)
        a, b = make_injector(plan), make_injector(plan)
        rule = plan.by_kind["fir"]
        fates_a = [a.sample(rule, "fir", 0, 1, float(t)) for t in range(200)]
        fates_b = [b.sample(rule, "fir", 0, 1, float(t)) for t in range(200)]
        assert fates_a == fates_b
        assert a.ledger == b.ledger
        assert a.summary() == b.summary()

    def test_drop_count_mode_is_exact(self):
        rule = FaultRule(drop_count=2)
        inj = make_injector(FaultPlan(by_kind={"fir": rule}))
        fates = [inj.sample(rule, "fir", 0, 1, 0.0) for _ in range(5)]
        assert fates[:2] == [[], []]            # first two dropped
        assert fates[2:] == [[0.0]] * 3          # then clean delivery
        assert inj.drops_injected() == 2

    def test_max_drops_budget(self):
        plan = FaultPlan(by_kind={"fir": FaultRule(drop=1.0)}, max_drops=3)
        inj = make_injector(plan)
        rule = plan.by_kind["fir"]
        fates = [inj.sample(rule, "fir", 0, 1, 0.0) for _ in range(10)]
        assert sum(1 for f in fates if not f) == 3
        assert all(f for f in fates[3:])

    def test_duplicate_returns_two_copies(self):
        rule = FaultRule(duplicate=1.0)
        inj = make_injector(FaultPlan(by_kind={"x": rule}))
        fate = inj.sample(rule, "x", 0, 1, 0.0)
        assert len(fate) == 2
        assert fate[1] > fate[0]  # the echo arrives later

    def test_delay_within_range(self):
        rule = FaultRule(delay=1.0, delay_us=(10.0, 20.0))
        inj = make_injector(FaultPlan(by_kind={"x": rule}))
        for _ in range(50):
            (extra,) = inj.sample(rule, "x", 0, 1, 0.0)
            assert 10.0 <= extra <= 20.0

    def test_ledger_records_faults(self):
        rule = FaultRule(drop_count=1)
        inj = make_injector(FaultPlan(by_kind={"fir": rule}))
        inj.sample(rule, "fir", 2, 3, 42.0)
        (ev,) = inj.ledger
        assert (ev.action, ev.kind, ev.src, ev.dst, ev.time_us) == (
            "drop", "fir", 2, 3, 42.0
        )


class TestNodeFaults:
    def test_stall_shift(self):
        plan = FaultPlan(node_faults={
            1: NodeFault(stall_at_us=100.0, stall_for_us=50.0),
        })
        inj = make_injector(plan)
        assert inj.node_faulted(1)
        assert not inj.node_faulted(0)
        assert inj.stall_shift(1, 120.0) == 150.0   # inside -> window end
        assert inj.stall_shift(1, 99.0) == 99.0     # before
        assert inj.stall_shift(1, 150.0) == 150.0   # at end (exclusive)
        assert inj.stall_shift(0, 120.0) == 120.0   # unfaulted node

    def test_slow_factor(self):
        plan = FaultPlan(node_faults={2: NodeFault(slow_factor=3.0)})
        inj = make_injector(plan)
        assert inj.node_faulted(2)
        assert inj.slow_factor(2) == 3.0
        assert inj.slow_factor(0) == 1.0
