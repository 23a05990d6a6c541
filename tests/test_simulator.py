import hashlib
import math
from dataclasses import replace

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
from eosched import dmrc, simulator
from conftest import desk_config, desk_plan, make_config


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
            # Every satellite to destination 0.
            links = [(k, 0, None, 0.0) for k in range(config.num_eos)]
            return replace(d, links=links)

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


class TestRunSeed:
    @pytest.mark.parametrize("seed", [1.5, -1, math.nan, True, np.bool_(False), "2"])
    def test_bad_seed_raises_parameter_error(self, model, seed):
        # 1.5 used to run seed 1, -1 escaped as numpy's ValueError, and
        # True and "2" ran seeds 1 and 2.
        cfg, plan = small_scenario(horizon=3)
        with pytest.raises(ParameterError, match="seed"):
            run(cfg, plan, model, "dmrc", seed=seed)

    def test_integral_seeds_of_any_type_run_the_same_seed(self, model):
        cfg, plan = small_scenario(horizon=20)
        series = [
            run(cfg, plan, model, "random", seed=seed).metrics.utility
            for seed in (2, 2.0, np.int64(2))
        ]
        assert all(np.array_equal(series[0], other) for other in series[1:])

    def test_default_seed_is_the_config_seed(self, model):
        cfg, plan = small_scenario(horizon=20, rng_seed=4)
        a = run(cfg, plan, model, "random").metrics.utility
        b = run(cfg, plan, model, "random", seed=4).metrics.utility
        assert np.array_equal(a, b)


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

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -5.0, 0, "8000", True, np.bool_(True), None]
    )
    def test_checks_every_value_before_the_first_run(self, model, monkeypatch, bad):
        # A bad value used to surface only when its turn came, after the
        # runs at every earlier value, and as NetworkConfig's ConfigError.
        cfg, plan = small_scenario(horizon=5)
        calls = []
        monkeypatch.setattr(simulator, "run", lambda *a, **k: calls.append(a))
        with pytest.raises(ParameterError, match="control factor"):
            sweep_v(cfg, plan, model, [1000, bad], [1])
        assert calls == []

    def test_values_are_read_as_floats(self, model):
        cfg, plan = small_scenario(horizon=5)
        rows = sweep_v(cfg, plan, model, (v for v in [np.int64(1000), 2000]), [1])
        assert [row.v for row in rows] == [1000.0, 2000.0]
        assert all(type(row.v) is float for row in rows)


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


def test_desk_dmrc_trajectory_is_pinned(model):
    """The desk DMRC run of seed 1, bit for bit. It crosses matchings
    whose optimum ties another up to the last bits of the total, so it
    fails if the matcher judges such ties differently. Only a change
    that states a behaviour change may record a new digest."""
    cfg = desk_config()
    m = run(cfg, desk_plan(cfg), model, "dmrc", seed=1).metrics
    digest = hashlib.sha256()
    for name in ("utility", "backlog", "virtual_backlog", "flow_arrivals", "delivered"):
        digest.update(getattr(m, name).tobytes())
    assert digest.hexdigest() == (
        "1f5bca0a8aa70e42db5542d1c8db34678eeb5c34a6cdbeae27cf6e56d3bbea01"
    )


def test_desk_dmrc_dual_iterations_are_pinned(model, monkeypatch):
    """The dual loop's iterations over the desk DMRC run of seed 0: 40 on
    each of its 1,260 slots with a contact and 1 on each of the other
    180, less what the certified stop saves on the slots whose visible
    pairs are disjoint or stars. A change that quietly turns the stop
    off, or loosens it, fails here."""
    results = []
    real = dmrc.josap_solve
    monkeypatch.setattr(
        dmrc, "josap_solve", lambda *a: results.append(real(*a)) or results[-1]
    )
    cfg = desk_config()
    run(cfg, desk_plan(cfg), model, "dmrc", seed=0)
    assert len(results) == 1440
    assert sum(r.iterations for r in results) == 26518
    assert sum(r.certified for r in results) == 972


def test_constellation_dmrc_trajectory_is_pinned(model):
    """A constellation-scale DMRC run (30 targets, 60 satellites, 6
    destinations with 4 transceivers each, 24 slots), bit for bit. About
    38 pairs are visible per slot, so the dual loop's matchings span
    many rows and columns, unlike the desk run's two or so pairs. Only a
    change that states a behaviour change may record a new digest."""
    cfg = desk_config(num_targets=30, num_eos=60, num_destinations=6,
                      transceivers=4, horizon=24)
    m = run(cfg, desk_plan(cfg), model, "dmrc", seed=0).metrics
    digest = hashlib.sha256()
    for name in ("utility", "backlog", "virtual_backlog", "flow_arrivals", "delivered"):
        digest.update(getattr(m, name).tobytes())
    assert digest.hexdigest() == (
        "21303c962d654b94ccf310288752dffbe71743fea588e587ee94d21c37625226"
    )


def test_constellation_fixed_cr_trajectory_is_pinned(model):
    """A constellation-scale Fixed-CR run (30 targets, 60 satellites, 6
    destinations with 4 transceivers each, 48 slots), bit for bit. Its
    transmission matchings weigh raw capacities, so many satellites tie
    between destinations; the metric series cannot tell which one was
    chosen, so the ledger's admitted and forwarded volumes are hashed
    too. Only a change that states a behaviour change may record a new
    digest."""
    cfg = desk_config(num_targets=30, num_eos=60, num_destinations=6,
                      transceivers=4, horizon=48)
    result = run(cfg, desk_plan(cfg), model, "fixed_cr", seed=0)
    digest = hashlib.sha256()
    for name in ("utility", "backlog", "virtual_backlog", "flow_arrivals", "delivered"):
        digest.update(getattr(result.metrics, name).tobytes())
    digest.update(result.ledger.joc_volume.tobytes())
    digest.update(result.ledger.fwd_volume.tobytes())
    assert digest.hexdigest() == (
        "c4e1d99e384b98209c008b1a137341e24a3d9a6e4df6d31977d4b7aec5de29ad"
    )


def _slot_by_slot_series(slots, plan):
    """The per-slot series as the slot loop once filled them, slot by
    slot, from each slot's arrivals, shipped and stored volumes and the
    deficits after the virtual-queue update."""
    T, I = len(slots), slots[0][0].shape[1]
    s = dict(
        utility=np.zeros(T),
        backlog=np.zeros(T),
        virtual_backlog=np.zeros(T),
        flow_arrivals=np.zeros((T, I)),
        delivered=np.zeros((T, I)),
        obs_used=np.zeros(T, dtype=int),
        obs_avail=np.zeros(T, dtype=int),
        trans_used=np.zeros(T, dtype=int),
        trans_avail=np.zeros(T, dtype=int),
    )
    delivered_so_far = np.zeros(I)
    for t, (arrivals, shipped, stored, deficit) in enumerate(slots):
        per_flow = arrivals.sum(axis=0)
        s["utility"][t] = float(np.sum(np.log1p(per_flow)))
        s["backlog"][t] = float(stored.sum())
        s["virtual_backlog"][t] = float(deficit.sum())
        s["flow_arrivals"][t] = per_flow
        delivered_so_far = delivered_so_far + shipped.sum(axis=(0, 1))
        s["delivered"][t] = delivered_so_far
        s["obs_avail"][t] = int(plan.obs_visible[t].sum())
        s["obs_used"][t] = int(np.count_nonzero(arrivals > 0))
        s["trans_avail"][t] = int(plan.trans_visible[t].sum())
        s["trans_used"][t] = int(np.count_nonzero(shipped.sum(axis=2) > 0))
    return s


@pytest.mark.parametrize("policy", ["dmrc", "fixed_cr", "random"])
def test_series_read_from_ledger_equal_slot_by_slot_series(model, monkeypatch, policy):
    """Every MetricsSeries array equals, bit for bit and in dtype, the one
    accumulated slot by slot from what the loop hands the ledger and the
    virtual queues; the histories are the ledger's and the deficits'."""
    from eosched import generate_synthetic_plan, simulator

    # Nine flows and twelve satellites, so the sums take numpy's unrolled
    # path; dense contacts, so several flows arrive and ship per slot.
    cfg = make_config(
        num_targets=9, num_eos=12, num_destinations=2, transceivers=2,
        horizon=96, rate_floors=40.0,
    )
    obs = generate_synthetic_plan(cfg, period=8, duty=0.25, offset_seed=5)
    trans = generate_synthetic_plan(cfg, period=6, duty=0.8, offset_seed=6)
    plan = ContactPlan(obs_visible=obs.obs_visible, trans_visible=trans.trans_visible)

    slots = []
    record, advance = simulator.record_decision, simulator.update_virtual_queues

    def spy_record(ledger, t, decision, shipped, stored):
        record(ledger, t, decision, shipped, stored)
        # The (K, N, I) delivered volume of the links.
        dense = np.zeros(decision.service.shape)
        for (k, n, f, _), s in zip(decision.links, shipped):
            if f is not None:
                dense[k, n, f] = s
        slots.append([decision.arrivals, dense, stored.copy()])

    def spy_advance(state, flow_arrivals, floors):
        queues = advance(state, flow_arrivals, floors)
        slots[-1].append(queues.deficit.copy())
        return queues

    monkeypatch.setattr(simulator, "record_decision", spy_record)
    monkeypatch.setattr(simulator, "update_virtual_queues", spy_advance)
    result = run(cfg, plan, model, policy, seed=3, record_history=True)

    expected = _slot_by_slot_series(slots, plan)
    assert expected["trans_used"].sum() > 0 and expected["virtual_backlog"].sum() > 0
    for name, want in expected.items():
        got = getattr(result.metrics, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name

    assert np.array_equal(result.data_history, result.ledger.store_volume)
    assert np.array_equal(result.data_history[1:], [stored for _, _, stored, _ in slots])
    assert not result.deficit_history[0].any()
    assert np.array_equal(result.deficit_history[1:], [d for *_, d in slots])
    assert np.array_equal(result.deficit_history[-1], result.final_queues.deficit)
