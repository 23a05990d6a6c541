import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from eosched import (
    ChannelModel,
    ParameterError,
    QueueState,
    drift_bound_gamma,
    lyapunov_value,
    stability_report,
    update_data_queues,
    update_virtual_queues,
)
from conftest import make_config


def state(q, p):
    return QueueState(data=np.asarray(q, dtype=float), deficit=np.asarray(p, dtype=float))


def triples(volumes):
    """A dense (K, I) array as ``update_data_queues``'s (k, i, volume)
    triples, one per queue."""
    volumes = np.asarray(volumes, dtype=float)
    return [(k, i, volumes[k, i]) for k, i in np.ndindex(volumes.shape)]


def update_dense(queues, arrivals, services):
    return update_data_queues(queues, triples(arrivals), triples(services))


class TestDataQueueUpdate:
    def test_service_exceeds_backlog(self):
        s = update_dense(state([[100.0]], [0.0]), [[30.0]], [[150.0]])
        assert s.data[0, 0] == 30.0

    def test_partial_drain(self):
        s = update_dense(state([[100.0]], [0.0]), [[0.0]], [[40.0]])
        assert s.data[0, 0] == 60.0

    def test_idle_fixed_point(self):
        s = state([[12.5, 3.0]], [0.0])
        for _ in range(50):
            s = update_dense(s, np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(s.data, [[12.5, 3.0]])

    def test_negative_input_rejected(self):
        with pytest.raises(ParameterError):
            update_dense(state([[1.0]], [0.0]), [[-1.0]], [[0.0]])
        with pytest.raises(ParameterError):
            update_dense(state([[1.0]], [0.0]), [[0.0]], [[-1.0]])

    def test_recursion_matches_reference_loop(self):
        # Elementwise reference recomputation must agree bitwise.
        rng = np.random.default_rng(42)
        for _ in range(1000):
            q = rng.uniform(0, 500, size=(3, 2))
            a = rng.uniform(0, 300, size=(3, 2))
            mu = rng.uniform(0, 400, size=(3, 2))
            got = update_dense(state(q, [0.0, 0.0]), a, mu).data
            for k in range(3):
                for i in range(2):
                    assert got[k, i] == max(0.0, q[k, i] - mu[k, i]) + a[k, i]


class TestVirtualQueueUpdate:
    def test_floor_shortfall_accumulates(self):
        s = update_virtual_queues(state([[0.0]], [5.0]), [2.0], [10.0])
        assert s.deficit[0] == 13.0

    def test_zero_floor_stays_zero(self):
        s = state([[0.0]], [0.0])
        rng = np.random.default_rng(1)
        for _ in range(100):
            s = update_virtual_queues(s, [float(rng.uniform(0, 50))], [0.0])
        assert s.deficit[0] == 0.0

    def test_floor_met_every_slot_stays_zero(self):
        s = state([[0.0]], [0.0])
        for _ in range(100):
            s = update_virtual_queues(s, [12.0], [10.0])
        assert s.deficit[0] == 0.0


volumes = st.floats(0.0, 1e6, allow_subnormal=False)


@st.composite
def queue_slots(draw):
    """Nonnegative (K, I) data queues, arrivals and service, and (I,)
    deficits, arrivals per flow and floors."""
    K, I = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    pair = hnp.arrays(float, (K, I), elements=volumes)
    flow = hnp.arrays(float, I, elements=volumes)
    return draw(pair), draw(pair), draw(pair), draw(flow), draw(flow), draw(flow)


class TestQueueProperties:
    @given(queue_slots())
    def test_data_update_drains_then_adds(self, slot):
        data, arrivals, service, deficit, _, _ = slot
        got = update_dense(state(data, deficit), arrivals, service)
        assert np.array_equal(got.data, np.maximum(data - service, 0.0) + arrivals)
        assert (got.data >= 0).all()
        assert np.array_equal(got.deficit, deficit)

    @given(queue_slots())
    def test_virtual_update_follows_its_recursion(self, slot):
        data, _, _, deficit, flow_arrivals, floors = slot
        got = update_virtual_queues(state(data, deficit), flow_arrivals, floors)
        for i in range(len(deficit)):
            assert got.deficit[i] == max(deficit[i] + floors[i] - flow_arrivals[i], 0.0)
        assert np.array_equal(got.data, data)

    @given(queue_slots(), st.sampled_from(("arrivals", "service", "flow")), st.data())
    def test_negative_inputs_raise(self, slot, which, data):
        queue, arrivals, service, deficit, flow_arrivals, floors = slot
        target = dict(arrivals=arrivals, service=service, flow=flow_arrivals)[which]
        index = data.draw(st.tuples(*(st.integers(0, n - 1) for n in target.shape)))
        target[index] = -data.draw(st.floats(1e-9, 1e6))
        with pytest.raises(ParameterError, match="nonnegative"):
            if which == "flow":
                update_virtual_queues(state(queue, deficit), flow_arrivals, floors)
            else:
                update_dense(state(queue, deficit), arrivals, service)


class TestLyapunov:
    def test_zero_state(self):
        assert lyapunov_value(state([[0.0, 0.0]], [0.0])) == 0.0

    def test_reference_value(self):
        assert lyapunov_value(state([[3.0], [4.0]], [0.0])) == 12.5

    def test_monotone_in_each_entry(self):
        base = lyapunov_value(state([[3.0], [4.0]], [2.0]))
        assert lyapunov_value(state([[3.5], [4.0]], [2.0])) > base
        assert lyapunov_value(state([[3.0], [4.0]], [2.5])) > base


class TestDriftBound:
    def test_reference_scenario(self):
        cfg = make_config(
            num_targets=1,
            num_eos=1,
            rate_floors=60.0,
            compression_set=(2 / 3, 1 / 2, 1 / 3, 1 / 4),
        )
        model = ChannelModel(
            obs_support=(600.0, 800.0, 1000.0),
            trans_support=(0.0, 200.0, 400.0),
        )
        gamma = drift_bound_gamma(cfg, model).gamma
        arrive_max = (2 / 3) * 1000.0
        expected = 0.5 * (arrive_max**2 + 400.0**2 + max(60.0, arrive_max - 60.0) ** 2)
        assert gamma == pytest.approx(expected, rel=1e-12)
        assert gamma == pytest.approx(486244.444444, rel=1e-9)

    def test_zero_capacities_and_floors(self):
        cfg = make_config(rate_floors=0.0)
        model = ChannelModel(
            obs_support=(0.0,), obs_probs=(1.0,), trans_support=(0.0,), trans_probs=(1.0,)
        )
        assert drift_bound_gamma(cfg, model).gamma == 0.0

    def test_monotone_in_capacity(self):
        cfg = make_config()
        lo = drift_bound_gamma(cfg, ChannelModel(trans_support=(0.0, 100.0, 200.0))).gamma
        hi = drift_bound_gamma(cfg, ChannelModel(trans_support=(0.0, 200.0, 400.0))).gamma
        assert hi > lo

    def test_slot_length_scales_volumes(self):
        cfg1 = make_config(slot_length=1.0)
        cfg2 = make_config(slot_length=2.0)
        model = ChannelModel()
        assert drift_bound_gamma(cfg2, model).gamma == pytest.approx(
            4 * drift_bound_gamma(cfg1, model).gamma
        )


class TestStabilityReport:
    def test_requires_two_snapshots(self):
        with pytest.raises(ParameterError):
            stability_report([state([[1.0]], [0.0])])

    def test_constant_queue_slope_shrinks(self):
        short = [state([[5.0]], [0.0])] * 11
        long = [state([[5.0]], [0.0])] * 101
        s_short, _ = stability_report(short)
        s_long, _ = stability_report(long)
        assert s_long[0, 0] < s_short[0, 0]
        assert s_long[0, 0] == pytest.approx(0.05)

    def test_linear_growth_slope_one(self):
        history = [state([[float(t)]], [float(t)]) for t in range(51)]
        dq, dp = stability_report(history)
        assert dq[0, 0] == pytest.approx(1.0)
        assert dp[0] == pytest.approx(1.0)
