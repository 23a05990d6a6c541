import io

import numpy as np
import pytest

from eosched import (
    ChannelModel,
    ChannelState,
    ConsistencyError,
    ContactPlan,
    DimensionError,
    SlotDecision,
    build_eteg,
    check_flow_conservation,
    generate_synthetic_plan,
    record_decision,
    run,
    sample_channels,
    write_edge_dump,
)
from conftest import make_config


def tiny_plan(T=3, I=2, K=2, N=1, visible=True):
    return ContactPlan(
        obs_visible=np.full((T, I, K), visible, dtype=bool),
        trans_visible=np.full((T, K, N), visible, dtype=bool),
    )


def states_for(plan, model=None, seed=0):
    model = model or ChannelModel()
    rng = np.random.default_rng(seed)
    return [sample_channels(plan, model, t, rng) for t in range(plan.horizon)]


def zero_decision(I=2, K=2, N=1):
    return SlotDecision([], [], (I, K, N))


class TestBuild:
    def test_no_contacts_only_store_edges(self):
        plan = tiny_plan(visible=False)
        g = build_eteg(plan, states_for(plan))
        assert g.joc_edge_count() == 0
        assert g.fwd_edge_count() == 0
        assert g.store_volume.shape == (4, 2, 2)

    def test_edge_counts_mirror_visibility(self):
        cfg = make_config(horizon=6)
        plan = generate_synthetic_plan(cfg, period=3, duty=1 / 3, offset_seed=5)
        g = build_eteg(plan, states_for(plan))
        assert g.joc_edge_count() == int(plan.obs_visible.sum())
        assert g.fwd_edge_count() == int(plan.trans_visible.sum())

    def test_capacities_copied_per_slot(self):
        plan = tiny_plan()
        states = states_for(plan)
        g = build_eteg(plan, states)
        for t, s in enumerate(states):
            assert np.array_equal(g.obs_capacity[t], s.B)
            assert np.array_equal(g.trans_capacity[t], s.C)

    def test_state_count_must_match(self):
        plan = tiny_plan(T=3)
        with pytest.raises(DimensionError):
            build_eteg(plan, states_for(tiny_plan(T=2)))

    def test_volumes_start_zero(self):
        plan = tiny_plan()
        g = build_eteg(plan, states_for(plan))
        assert g.joc_volume.sum() == 0
        assert g.fwd_volume.sum() == 0
        assert g.store_volume.sum() == 0


class TestRecord:
    def test_zero_decision_changes_nothing(self):
        plan = tiny_plan()
        g = build_eteg(plan, states_for(plan))
        record_decision(g, 0, zero_decision(), [], np.zeros((2, 2)))
        assert g.joc_volume.sum() == 0 and g.fwd_volume.sum() == 0

    def test_joc_volume_is_capacity_times_ratio(self):
        plan = tiny_plan(I=1, K=1)
        state = ChannelState(B=np.array([[600.0]]), C=np.array([[400.0]]))
        g = build_eteg(plan, [state] * 3)
        d = SlotDecision([(0, 0, 0.25, 150.0)], [], (1, 1, 1))
        record_decision(g, 1, d, [], np.array([[150.0]]))
        assert g.joc_volume[1, 0, 0] == 150.0
        assert g.store_volume[2, 0, 0] == 150.0

    def test_shipping_on_invisible_edge_rejected(self):
        plan = tiny_plan(visible=False)
        g = build_eteg(plan, states_for(plan))
        d = SlotDecision([], [(0, 0, 0, 5.0)], (2, 2, 1))
        with pytest.raises(ConsistencyError, match="forward edge"):
            record_decision(g, 0, d, [5.0], np.zeros((2, 2)))

    def test_arrival_on_invisible_edge_rejected(self):
        plan = tiny_plan(visible=False)
        g = build_eteg(plan, states_for(plan))
        d = SlotDecision([(0, 1, 0.25, 3.0)], [], (2, 2, 1))
        with pytest.raises(ConsistencyError, match="observation edge"):
            record_decision(g, 0, d, [], np.zeros((2, 2)))


class TestConservation:
    def test_untouched_graph_balances(self):
        plan = tiny_plan()
        g = build_eteg(plan, states_for(plan))
        report = check_flow_conservation(g)
        assert report.ok and report.max_residual == 0.0

    def test_full_run_balances(self, model):
        cfg = make_config(horizon=30)
        plan = generate_synthetic_plan(cfg, period=5, duty=0.6, offset_seed=1)
        result = run(cfg, plan, model, "dmrc", seed=2)
        report = check_flow_conservation(result.ledger)
        assert report.ok
        assert report.max_relative <= 1e-9

    def test_corrupting_one_store_flags_two_slots(self, model):
        cfg = make_config(horizon=30)
        plan = generate_synthetic_plan(cfg, period=5, duty=0.6, offset_seed=1)
        result = run(cfg, plan, model, "dmrc", seed=2)
        g = result.ledger
        g.store_volume[10, 1, 0] += 1.0
        report = check_flow_conservation(g)
        # The corrupted boundary unbalances the slot before and after it.
        assert sorted(report.violations) == [(0, 1, 9), (0, 1, 10)]

    def test_no_volume_creation(self, model):
        cfg = make_config(horizon=40)
        plan = generate_synthetic_plan(cfg, period=4, duty=0.5, offset_seed=3)
        result = run(cfg, plan, model, "dmrc", seed=5)
        assert result.ledger.total_delivered() <= result.ledger.total_injected() + 1e-9

    def test_final_store_holds_leftover(self, model):
        cfg = make_config(horizon=25)
        plan = generate_synthetic_plan(cfg, period=5, duty=0.6, offset_seed=2)
        result = run(cfg, plan, model, "dmrc", seed=1)
        assert result.ledger.store_volume[0].sum() == 0.0
        leftover = result.ledger.store_volume[-1].sum()
        assert leftover == pytest.approx(result.final_queues.data.sum(), rel=1e-12)


def test_edge_dump_format(model):
    cfg = make_config(horizon=8)
    plan = generate_synthetic_plan(cfg, period=4, duty=0.5, offset_seed=1)
    result = run(cfg, plan, model, "dmrc", seed=0)
    buf = io.StringIO()
    write_edge_dump(result.ledger, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines, "expected at least one recorded edge"
    for line in lines:
        kind, t, endpoints, cap, flow, vol = line.split(",")
        assert kind in ("joc", "fwd", "store")
        assert int(t) >= 0
        assert float(vol) > 0
        if kind == "store":
            assert cap == "inf"
        else:
            assert float(cap) >= 0
