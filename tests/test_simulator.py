import math

import numpy as np
import pytest

from eosched import (
    ChannelModel,
    ContactPlan,
    MetricsSeries,
    ParameterError,
    average_metrics,
    check_flow_conservation,
    compare_policies,
    drift_bound_gamma,
    lyapunov_value,
    QueueState,
    run,
    sweep_v,
)
from conftest import make_config


def empty_plan(cfg):
    return ContactPlan(
        obs_visible=np.zeros(
            (cfg.horizon, cfg.num_targets, cfg.num_eos), dtype=bool
        ),
        trans_visible=np.zeros(
            (cfg.horizon, cfg.num_eos, cfg.num_destinations), dtype=bool
        ),
    )


def busy_plan(cfg, seed=1):
    from conftest import desk_plan

    return desk_plan(cfg, offset_seed=seed)


def small_scenario(horizon=60, **overrides):
    cfg = make_config(
        num_targets=3,
        num_eos=4,
        num_destinations=2,
        transceivers=1,
        horizon=horizon,
        **overrides,
    )
    from eosched import generate_synthetic_plan

    obs = generate_synthetic_plan(cfg, period=10, duty=0.3, offset_seed=3)
    trans = generate_synthetic_plan(cfg, period=10, duty=0.7, offset_seed=4)
    plan = ContactPlan(obs_visible=obs.obs_visible, trans_visible=trans.trans_visible)
    return cfg, plan


class TestRun:
    def test_single_slot_no_contacts(self, model):
        cfg = make_config(horizon=1, rate_floors=7.0)
        result = run(cfg, empty_plan(cfg), model, "dmrc", seed=0)
        m = result.metrics
        assert m.utility[0] == 0.0
        assert m.backlog[0] == 0.0
        assert np.all(result.final_queues.deficit == 7.0)

    def test_reproducible(self, model):
        cfg, plan = small_scenario()
        a = run(cfg, plan, model, "dmrc", seed=9)
        b = run(cfg, plan, model, "dmrc", seed=9)
        assert np.array_equal(a.metrics.utility, b.metrics.utility)
        assert np.array_equal(a.metrics.backlog, b.metrics.backlog)
        assert np.array_equal(a.final_queues.data, b.final_queues.data)

    def test_policies_share_channels(self, model):
        cfg, plan = small_scenario()
        runs = {p: run(cfg, plan, model, p, seed=5) for p in ("dmrc", "random", "fixed_cr")}
        caps = {p: r.ledger.obs_capacity for p, r in runs.items()}
        assert np.array_equal(caps["dmrc"], caps["random"])
        assert np.array_equal(caps["dmrc"], caps["fixed_cr"])
        caps = {p: r.ledger.trans_capacity for p, r in runs.items()}
        assert np.array_equal(caps["dmrc"], caps["random"])

    def test_delivered_plus_leftover_equals_injected(self, model):
        cfg, plan = small_scenario(horizon=100)
        for policy in ("dmrc", "random", "fixed_cr"):
            result = run(cfg, plan, model, policy, seed=2)
            injected = result.ledger.total_injected()
            delivered = result.ledger.total_delivered()
            leftover = result.final_queues.data.sum()
            scale = max(injected, 1.0)
            assert abs(injected - delivered - leftover) <= 1e-9 * scale
            assert check_flow_conservation(result.ledger).ok

    def test_delivered_series_nondecreasing(self, model):
        cfg, plan = small_scenario()
        m = run(cfg, plan, model, "random", seed=3).metrics
        assert np.all(np.diff(m.delivered.sum(axis=1)) >= 0)

    def test_drift_inequality_every_slot(self, model):
        cfg, plan = small_scenario(horizon=80, rate_floors=5.0)
        result = run(cfg, plan, model, "dmrc", seed=6, record_history=True)
        gamma = drift_bound_gamma(cfg, ChannelModel()).gamma
        floors = np.asarray(cfg.rate_floors)
        arrivals = np.transpose(result.ledger.joc_volume, (0, 2, 1))
        for t in range(cfg.horizon):
            q_now = QueueState(
                data=result.data_history[t], deficit=result.deficit_history[t]
            )
            q_next = QueueState(
                data=result.data_history[t + 1], deficit=result.deficit_history[t + 1]
            )
            drift = lyapunov_value(q_next) - lyapunov_value(q_now)
            a = arrivals[t]
            mu = result.service_history[t]
            rhs = (
                gamma
                + float(np.sum(q_now.data * (a - mu)))
                + float(np.sum(q_now.deficit * (floors - a.sum(axis=0))))
            )
            assert drift <= rhs + 1e-6 * gamma

    def test_unknown_policy_rejected(self, model):
        from eosched import ConfigError

        cfg, plan = small_scenario(horizon=5)
        with pytest.raises(ConfigError):
            run(cfg, plan, model, "greedy", seed=0)

    def test_invalid_decision_aborts_naming_slot(self, model, monkeypatch):
        # A policy that over-schedules must abort the run at its slot.
        from eosched import ScheduleValidationError, simulator

        cfg, plan = small_scenario(horizon=10)
        real = simulator.dmrc.dmrc_step

        def broken(queues, state, config, params):
            d = real(queues, state, config, params)
            bad = d.transmit.copy()
            bad[:, 0] = 1  # every satellite to destination 0
            return type(d)(
                observe=d.observe, transmit=bad, rho=d.rho,
                arrivals=d.arrivals, service=d.service,
            )

        monkeypatch.setattr(simulator.dmrc, "dmrc_step", broken)
        with pytest.raises(ScheduleValidationError, match="slot 0"):
            run(cfg, plan, model, "dmrc", seed=1)

    def test_queues_mean_rate_stable_under_feasible_floors(self, model):
        from eosched import stability_report

        cfg, plan = small_scenario(horizon=200, rate_floors=5.0)
        result = run(cfg, plan, model, "dmrc", seed=4, record_history=True)
        history = [
            QueueState(data=result.data_history[t], deficit=result.deficit_history[t])
            for t in range(cfg.horizon + 1)
        ]
        data_slopes, deficit_slopes = stability_report(history)
        mean_level = float(np.mean(result.metrics.backlog))
        assert data_slopes.max() <= 0.01 * mean_level
        assert deficit_slopes.max() <= 0.01 * max(mean_level, 1.0)

    def test_history_recorded_on_request(self, model):
        cfg, plan = small_scenario(horizon=10)
        result = run(cfg, plan, model, "dmrc", seed=1, record_history=True)
        assert result.data_history.shape == (11, 4, 3)
        assert np.array_equal(result.data_history[-1], result.final_queues.data)
        bare = run(cfg, plan, model, "dmrc", seed=1)
        assert bare.data_history is None


class TestAverageMetrics:
    def manufactured(self):
        T = 3
        return MetricsSeries(
            utility=np.array([math.log(2), math.log(3), math.log(4)]),
            backlog=np.array([1.0, 2.0, 3.0]),
            virtual_backlog=np.zeros(T),
            flow_arrivals=np.array([[2.0], [4.0], [6.0]]),
            delivered=np.array([[1.0], [2.0], [2.5]]),
            obs_used=np.array([1, 1, 1]),
            obs_avail=np.array([1, 1, 1]),
            trans_used=np.array([2, 0, 2]),
            trans_avail=np.array([2, 2, 2]),
        )

    def test_mean_utility(self):
        s = average_metrics(self.manufactured())
        assert s.avg_utility == pytest.approx(
            (math.log(2) + math.log(3) + math.log(4)) / 3
        )

    def test_full_usage_is_unit_ratio(self):
        s = average_metrics(self.manufactured())
        assert s.obs_utilization == 1.0
        assert s.trans_utilization == pytest.approx(4 / 6)

    def test_flow_rate_identity(self):
        s = average_metrics(self.manufactured())
        assert s.avg_flow_rates[0] == pytest.approx(4.0)

    def test_all_zero_series(self):
        T = 2
        zero = MetricsSeries(
            utility=np.zeros(T),
            backlog=np.zeros(T),
            virtual_backlog=np.zeros(T),
            flow_arrivals=np.zeros((T, 1)),
            delivered=np.zeros((T, 1)),
            obs_used=np.zeros(T, dtype=int),
            obs_avail=np.zeros(T, dtype=int),
            trans_used=np.zeros(T, dtype=int),
            trans_avail=np.zeros(T, dtype=int),
        )
        s = average_metrics(zero)
        assert s.avg_utility == 0.0
        assert s.obs_utilization == 0.0


class TestSweep:
    def test_single_value_matches_run(self, model):
        cfg, plan = small_scenario(horizon=40)
        rows = sweep_v(cfg, plan, model, [cfg.control_factor], [3])
        direct = average_metrics(run(cfg, plan, model, "dmrc", 3).metrics)
        assert rows[0].avg_utility == pytest.approx(direct.avg_utility)
        assert rows[0].avg_backlog == pytest.approx(direct.avg_backlog)

    def test_rejects_nonpositive_v(self, model):
        cfg, plan = small_scenario(horizon=5)
        with pytest.raises(ParameterError):
            sweep_v(cfg, plan, model, [0.0], [1])

    def test_rejects_empty_seed_list(self, model):
        cfg, plan = small_scenario(horizon=5)
        with pytest.raises(ParameterError):
            sweep_v(cfg, plan, model, [100.0], [])


class TestCompare:
    def test_identical_contact_counts_across_policies(self, model):
        cfg, plan = small_scenario(horizon=50)
        table = compare_policies(cfg, plan, model, seeds=[1, 2])
        avails = {
            (s.obs_avail_total, s.trans_avail_total) for s in table.values()
        }
        assert len(avails) == 1

    def test_seed_average_sums_counts_and_averages_the_rest(self, model):
        cfg, plan = small_scenario(horizon=30, rate_floors=20.0)
        seeds = [1, 2]
        s = compare_policies(cfg, plan, model, ["fixed_cr"], seeds)["fixed_cr"]
        per_seed = [
            average_metrics(run(cfg, plan, model, "fixed_cr", seed).metrics)
            for seed in seeds
        ]
        assert s.obs_avail_total == sum(p.obs_avail_total for p in per_seed)
        assert s.trans_avail_total == sum(p.trans_avail_total for p in per_seed)
        for name in (
            "avg_utility",
            "avg_backlog",
            "avg_virtual_backlog",
            "obs_utilization",
            "trans_utilization",
            "delivered_total",
        ):
            assert getattr(s, name) == np.mean([getattr(p, name) for p in per_seed])
        np.testing.assert_array_equal(
            s.avg_flow_rates, np.mean([p.avg_flow_rates for p in per_seed], axis=0)
        )
