import math

import numpy as np
import pytest

from eosched import (
    ChannelModel,
    ConfigError,
    NetworkConfig,
    ParameterError,
    PlanFormatError,
    generate_synthetic_plan,
    load_contact_plan,
    sample_channels,
)
from conftest import make_config


class TestNetworkConfig:
    def test_round_trip(self):
        cfg = make_config()
        assert cfg.transceivers == (1,)
        assert cfg.rate_floors == (0.0, 0.0)

    def test_compression_set_must_decrease(self):
        with pytest.raises(ConfigError):
            make_config(compression_set=(1 / 4, 1 / 2))
        with pytest.raises(ConfigError):
            make_config(compression_set=(1 / 2, 1 / 2))

    def test_compression_set_bounds(self):
        with pytest.raises(ConfigError):
            make_config(compression_set=(1.5, 0.5))
        with pytest.raises(ConfigError):
            make_config(compression_set=(0.5, 0.0))

    def test_negative_floor_rejected(self):
        with pytest.raises(ConfigError):
            make_config(rate_floors=-1.0)

    def test_nonpositive_control_factor_rejected(self):
        with pytest.raises(ConfigError):
            make_config(control_factor=0.0)

    def test_transceiver_broadcast_and_length(self):
        cfg = make_config(num_destinations=3, transceivers=2)
        assert cfg.transceivers == (2, 2, 2)
        with pytest.raises(ConfigError):
            make_config(num_destinations=3, transceivers=(2, 2))


class TestConfigValues:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate_floors", math.inf),
            ("rate_floors", (0.0, math.nan)),
            ("control_factor", math.nan),
            ("control_factor", math.inf),
            ("slot_length", math.nan),
            ("compression_set", (2 / 3, math.nan)),
            # float() reads these as numbers.
            ("control_factor", "8000"),
            ("slot_length", True),
            ("rate_floors", True),
            ("rate_floors", (0.0, np.bool_(False))),
            ("compression_set", (2 / 3, "0.5")),
        ],
    )
    def test_non_finite_network_value_names_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            make_config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("obs_support", (600.0, math.nan, 1000.0)),
            ("obs_probs", (math.nan, 0.5, 0.5)),
            ("trans_support", (0.0, math.inf, 400.0)),
            ("trans_probs", (1 / 3, 1 / 3, "x")),
            ("obs_support", (600.0, "800", 1000.0)),
            ("trans_probs", (True, 0, 0)),
        ],
    )
    def test_non_finite_channel_value_names_field(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ChannelModel(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_targets", 2.7),
            ("num_eos", 0.5),
            ("num_destinations", math.nan),
            ("horizon", 10.5),
            ("transceivers", 1.5),
            ("transceivers", (1.0, 2.5)),
            ("num_targets", 0),
            ("horizon", "x"),
            ("rng_seed", 0.5),
            ("rng_seed", -1),
            ("num_targets", "3"),
            ("num_eos", True),
            ("horizon", np.bool_(True)),
            ("transceivers", (1, True)),
            ("rng_seed", "0"),
            # More cells than a numpy array can index.
            *[
                (field, value)
                for field in ("num_targets", "num_eos", "num_destinations", "horizon")
                for value in (1e308, 10**30)
            ],
        ],
    )
    def test_non_integral_count_names_field(self, field, value):
        overrides = {field: value}
        if field == "transceivers" and not np.isscalar(value):
            overrides["num_destinations"] = len(value)
        with pytest.raises(ConfigError, match=field):
            make_config(**overrides)

    def test_tensor_beyond_numpy_index_rejected(self):
        # Each count fits; the (horizon + 1) x 2**10 x 1 x 2**10 ledger
        # tensor has more cells than a numpy float array can.
        with pytest.raises(ConfigError, match="horizon, num_targets, num_eos"):
            make_config(num_targets=2**10, num_eos=2**10, num_destinations=1,
                        horizon=2**40)

    def test_integral_floats_are_counts(self):
        cfg = make_config(
            num_targets=2.0, num_eos=3.0, num_destinations=2.0,
            transceivers=(1.0, 2.0), horizon=10.0, rng_seed=7.0,
        )
        counts = (cfg.num_targets, cfg.num_eos, cfg.num_destinations, cfg.horizon)
        assert counts == (2, 3, 2, 10) and cfg.transceivers == (1, 2)
        assert cfg.rng_seed == 7
        assert all(type(v) is int for v in (*counts, *cfg.transceivers, cfg.rng_seed))


class TestChannelModel:
    def test_probs_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            ChannelModel(obs_support=(1.0, 2.0), obs_probs=(0.6, 0.5))

    def test_negative_support_rejected(self):
        with pytest.raises(ConfigError):
            ChannelModel(obs_support=(-1.0, 2.0), obs_probs=(0.5, 0.5))


class TestLoadContactPlan:
    def write(self, tmp_path, text):
        path = tmp_path / "plan.txt"
        path.write_text(text)
        return path

    def test_empty_file_means_no_contacts(self, tmp_path):
        cfg = make_config(horizon=5)
        plan = load_contact_plan(self.write(tmp_path, "# nothing\n\n"), cfg)
        assert not plan.obs_visible.any()
        assert not plan.trans_visible.any()

    def test_single_window(self, tmp_path):
        cfg = make_config(horizon=10)
        plan = load_contact_plan(self.write(tmp_path, "obs,0,0,5,7\n"), cfg)
        expected = np.zeros(10, dtype=bool)
        expected[5:8] = True
        assert np.array_equal(plan.obs_visible[:, 0, 0], expected)
        assert plan.obs_visible.sum() == 3

    def test_trans_record(self, tmp_path):
        cfg = make_config(horizon=4)
        plan = load_contact_plan(self.write(tmp_path, "trans,2,0,1,2\n"), cfg)
        assert plan.trans_visible[1, 2, 0] and plan.trans_visible[2, 2, 0]
        assert plan.trans_visible.sum() == 2

    def test_window_clipped_with_warning(self, tmp_path):
        cfg = make_config(horizon=10)
        with pytest.warns(UserWarning, match="clipped"):
            plan = load_contact_plan(self.write(tmp_path, "obs,1,1,8,14\n"), cfg)
        assert np.array_equal(np.nonzero(plan.obs_visible[:, 1, 1])[0], [8, 9])

    def test_negative_start_clipped_with_warning(self, tmp_path):
        cfg = make_config(horizon=10)
        with pytest.warns(UserWarning, match="clipped"):
            plan = load_contact_plan(self.write(tmp_path, "trans,0,0,-3,2\n"), cfg)
        assert np.array_equal(np.nonzero(plan.trans_visible[:, 0, 0])[0], [0, 1, 2])

    def test_window_entirely_beyond_horizon_is_empty(self, tmp_path):
        cfg = make_config(horizon=5)
        with pytest.warns(UserWarning, match="clipped"):
            plan = load_contact_plan(self.write(tmp_path, "obs,0,0,7,9\n"), cfg)
        assert not plan.obs_visible.any()

    def test_malformed_record_names_line(self, tmp_path):
        cfg = make_config(horizon=5)
        with pytest.raises(PlanFormatError, match="line 2"):
            load_contact_plan(self.write(tmp_path, "obs,0,0,0,1\nobs,0,zero,0,1\n"), cfg)
        with pytest.raises(PlanFormatError, match="line 1"):
            load_contact_plan(self.write(tmp_path, "obs,0,0,0\n"), cfg)
        with pytest.raises(PlanFormatError, match="unknown record"):
            load_contact_plan(self.write(tmp_path, "blah,0,0,0,1\n"), cfg)

    def test_out_of_range_indices_are_config_errors(self, tmp_path):
        cfg = make_config(horizon=5)
        with pytest.raises(ConfigError):
            load_contact_plan(self.write(tmp_path, "obs,5,0,0,1\n"), cfg)
        with pytest.raises(ConfigError):
            load_contact_plan(self.write(tmp_path, "trans,0,9,0,1\n"), cfg)


class TestSyntheticPlan:
    def test_full_duty_always_visible(self):
        cfg = make_config(horizon=12)
        plan = generate_synthetic_plan(cfg, period=4, duty=1.0, offset_seed=0)
        assert plan.obs_visible.all() and plan.trans_visible.all()

    def test_duty_fraction_per_period(self):
        cfg = make_config(horizon=40)
        plan = generate_synthetic_plan(cfg, period=10, duty=0.3, offset_seed=3)
        per_pair = plan.obs_visible.reshape(4, 10, 2, 3).sum(axis=1)
        assert (per_pair == 3).all()

    def test_deterministic_given_seed(self):
        cfg = make_config(horizon=30)
        a = generate_synthetic_plan(cfg, period=7, duty=0.4, offset_seed=9)
        b = generate_synthetic_plan(cfg, period=7, duty=0.4, offset_seed=9)
        assert np.array_equal(a.obs_visible, b.obs_visible)
        assert np.array_equal(a.trans_visible, b.trans_visible)

    def test_duty_out_of_range(self):
        cfg = make_config()
        with pytest.raises(ParameterError):
            generate_synthetic_plan(cfg, period=10, duty=0.0, offset_seed=0)
        with pytest.raises(ParameterError):
            generate_synthetic_plan(cfg, period=10, duty=1.2, offset_seed=0)

    @pytest.mark.parametrize("period", [4.5, 0, -3, 2**62 + 1, 1e300, True])
    def test_period_not_an_integer_in_range(self, period):
        # 4.5 used to be truncated to 4, and 1e300 escaped as numpy's
        # ValueError.
        with pytest.raises(ParameterError, match="^period "):
            generate_synthetic_plan(make_config(), period=period, duty=0.5, offset_seed=0)

    @pytest.mark.parametrize("offset_seed", [-1, 1.5, -0.5])
    def test_offset_seed_not_a_nonnegative_integer(self, offset_seed):
        # -1 used to escape as numpy's ValueError, 1.5 was truncated.
        with pytest.raises(ParameterError, match="^offset_seed "):
            generate_synthetic_plan(
                make_config(), period=4, duty=0.5, offset_seed=offset_seed
            )

    def test_integral_floats_read_as_integers(self):
        cfg = make_config(horizon=12)
        a = generate_synthetic_plan(cfg, period=4, duty=0.5, offset_seed=3)
        b = generate_synthetic_plan(cfg, period=4.0, duty=0.5, offset_seed=3.0)
        assert np.array_equal(a.obs_visible, b.obs_visible)
        assert np.array_equal(a.trans_visible, b.trans_visible)


class TestSampleChannels:
    def test_invisible_entries_zero(self, model):
        cfg = make_config(horizon=3)
        plan = generate_synthetic_plan(cfg, period=3, duty=1 / 3, offset_seed=2)
        rng = np.random.default_rng(0)
        state = sample_channels(plan, model, 0, rng)
        assert np.all(state.B[~plan.obs_visible[0]] == 0)
        assert np.all(state.C[~plan.trans_visible[0]] == 0)

    def test_no_contacts_all_zero(self, model):
        cfg = make_config(horizon=2)
        plan = generate_synthetic_plan(cfg, period=100, duty=0.01, offset_seed=0)
        # window length rounds to 1 slot at phase offsets; find a blank slot
        rng = np.random.default_rng(0)
        for t in range(2):
            state = sample_channels(plan, model, t, rng)
            masked = state.B[~plan.obs_visible[t]]
            assert np.all(masked == 0)

    def test_values_from_support(self, model):
        cfg = make_config(horizon=1)
        plan = generate_synthetic_plan(cfg, period=1, duty=1.0, offset_seed=0)
        rng = np.random.default_rng(1)
        state = sample_channels(plan, model, 0, rng)
        assert np.isin(state.B, (600.0, 800.0, 1000.0)).all()
        assert np.isin(state.C, (0.0, 200.0, 400.0)).all()

    def test_tau_scales_volumes(self, model):
        cfg = make_config(horizon=1)
        plan = generate_synthetic_plan(cfg, period=1, duty=1.0, offset_seed=0)
        state = sample_channels(plan, model, 0, np.random.default_rng(1), tau=60.0)
        assert np.isin(state.B, (36000.0, 48000.0, 60000.0)).all()

    def test_empirical_frequencies(self, model):
        cfg = NetworkConfig(num_targets=1, num_eos=1, num_destinations=1, horizon=10000)
        plan = generate_synthetic_plan(cfg, period=1, duty=1.0, offset_seed=0)
        rng = np.random.default_rng(7)
        draws = np.array(
            [sample_channels(plan, model, t, rng).B[0, 0] for t in range(10000)]
        )
        for value in (600.0, 800.0, 1000.0):
            assert abs(np.mean(draws == value) - 1 / 3) < 0.02

    def test_lag_one_autocorrelation_near_zero(self, model):
        cfg = NetworkConfig(num_targets=1, num_eos=1, num_destinations=1, horizon=10000)
        plan = generate_synthetic_plan(cfg, period=1, duty=1.0, offset_seed=0)
        rng = np.random.default_rng(11)
        draws = np.array(
            [sample_channels(plan, model, t, rng).B[0, 0] for t in range(10000)]
        )
        corr = np.corrcoef(draws[:-1], draws[1:])[0, 1]
        assert abs(corr) < 0.05

    def test_bitwise_replay(self, model):
        cfg = make_config(horizon=50)
        plan = generate_synthetic_plan(cfg, period=5, duty=0.5, offset_seed=4)

        def sequence():
            rng = np.random.default_rng(123)
            return [sample_channels(plan, model, t, rng) for t in range(50)]

        first, second = sequence(), sequence()
        for a, b in zip(first, second):
            assert np.array_equal(a.B, b.B) and np.array_equal(a.C, b.C)

    def test_slot_out_of_range(self, model):
        cfg = make_config(horizon=3)
        plan = generate_synthetic_plan(cfg, period=3, duty=1.0, offset_seed=0)
        with pytest.raises(ParameterError):
            sample_channels(plan, model, 3, np.random.default_rng(0))
